package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"aiac/internal/metrics"
)

// Streaming dashboard codec. A run is streamed as a sequence of Frames over
// Server-Sent Events; each frame's payload is one line of the metrics JSONL
// format (type "manifest" / "sample" / "event" / "runtime"), plus a "phase"
// frame type marking lifecycle transitions. Because the payloads ARE the
// JSONL lines, a follower rebuilds the run with metrics.ReadRun and renders
// the same dashboard the server would — and replaying a finished run is a
// pure function of its stored telemetry, so the byte stream is
// deterministic and golden-testable.

// Frame is one streamed dashboard frame: an SSE event name plus a
// single-line JSON payload.
type Frame struct {
	// Event is the SSE event name: "manifest", "phase", "sample", "event"
	// or "runtime".
	Event string
	// Data is the payload: one JSON object, no interior newlines.
	Data []byte
}

// Frame (SSE event) names.
const (
	FrameManifest = "manifest"
	FramePhase    = "phase"
	FrameSample   = "sample"
	FrameEvent    = "event"
	FrameRuntime  = "runtime"
)

type framePhase struct {
	Type  string `json:"type"`
	Phase string `json:"phase"`
}

// ManifestFrame, PhaseFrame, SampleFrame, EventFrame and RuntimeFrame build
// individual frames; live streams (fed from a metrics.Listener) emit them as
// telemetry arrives, in whatever order the runtime produced it. All but the
// phase frame carry a metrics JSONL line, encoded by internal/metrics.
func ManifestFrame(m metrics.Manifest) Frame {
	return Frame{Event: FrameManifest, Data: metrics.ManifestLine(m)}
}

func PhaseFrame(phase string) Frame {
	data, _ := json.Marshal(framePhase{Type: "phase", Phase: phase}) // two strings: cannot fail
	return Frame{Event: FramePhase, Data: data}
}

func SampleFrame(node int, sm metrics.NodeSample) Frame {
	return Frame{Event: FrameSample, Data: metrics.SampleLine(node, sm)}
}

func EventFrame(ev metrics.Event) Frame {
	return Frame{Event: FrameEvent, Data: metrics.EventLine(ev)}
}

func RuntimeFrame(run *metrics.Run) Frame {
	return Frame{Event: FrameRuntime, Data: run.RuntimeLine()}
}

// Stream replays a finished run as the canonical frame sequence: manifest,
// phase "running", then samples and events merged in virtual-time order
// (ties: samples before events, samples by ascending node), the runtime
// aggregates, and a terminal phase frame. The output is a pure function of
// the run, so streaming the same stored run twice yields identical bytes.
func Stream(run *metrics.Run) []Frame {
	frames := []Frame{
		ManifestFrame(run.Manifest),
		PhaseFrame(metrics.PhaseRunning),
	}

	type item struct {
		t    float64
		kind int // 0 = sample, 1 = event; samples first at equal t
		f    Frame
	}
	var items []item
	for node, row := range run.Samples {
		for _, sm := range row {
			items = append(items, item{t: sm.T, kind: 0, f: SampleFrame(node, sm)})
		}
	}
	for _, ev := range run.Events {
		items = append(items, item{t: ev.T, kind: 1, f: EventFrame(ev)})
	}
	// Stable sort: node-major sample order and stored event order are
	// preserved within equal keys, so equal-time samples stay in ascending
	// node order.
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].t != items[j].t {
			return items[i].t < items[j].t
		}
		return items[i].kind < items[j].kind
	})
	for _, it := range items {
		frames = append(frames, it.f)
	}

	frames = append(frames, RuntimeFrame(run))
	phase := metrics.PhaseDone
	if run.Manifest.Outcome == nil {
		// An unsealed run (crashed or still live when exported) has no
		// outcome; report it as still running so followers keep waiting.
		phase = metrics.PhaseRunning
	}
	frames = append(frames, PhaseFrame(phase))
	return frames
}

// WriteSSE encodes one frame in Server-Sent Events wire format.
func WriteSSE(w io.Writer, f Frame) error {
	if bytes.ContainsAny(f.Data, "\n\r") {
		return fmt.Errorf("report: frame payload contains newline")
	}
	_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", f.Event, f.Data)
	return err
}

// WriteSSEStream encodes a frame sequence.
func WriteSSEStream(w io.Writer, frames []Frame) error {
	for _, f := range frames {
		if err := WriteSSE(w, f); err != nil {
			return err
		}
	}
	return nil
}

// ReadSSE parses a Server-Sent Events stream into frames. Comment lines
// (": keepalive") and unknown fields are skipped per the SSE spec; multiple
// data lines in one frame are joined with newlines (and will then fail
// Accumulate, which wants single-line payloads — our writer never emits
// them). Reading stops at EOF; a trailing unterminated frame is kept.
func ReadSSE(r io.Reader) ([]Frame, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var frames []Frame
	var event string
	var data []string
	flush := func() {
		if event == "" && len(data) == 0 {
			return
		}
		frames = append(frames, Frame{Event: event, Data: []byte(strings.Join(data, "\n"))})
		event, data = "", nil
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			flush()
		case strings.HasPrefix(line, ":"):
			// comment / keepalive
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimPrefix(strings.TrimPrefix(line, "event:"), " ")
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		default:
			// other SSE fields (id, retry): ignored
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return frames, nil
}

// Accumulate rebuilds a run from streamed frames and reports the last phase
// seen ("" if none). It is the follower's half of Stream: feeding it the
// frames of Stream(run) reproduces run.
func Accumulate(frames []Frame) (*metrics.Run, string, error) {
	var buf bytes.Buffer
	phase := ""
	for _, f := range frames {
		if f.Event == FramePhase {
			var fp framePhase
			if err := json.Unmarshal(f.Data, &fp); err != nil {
				return nil, "", fmt.Errorf("report: phase frame: %v", err)
			}
			phase = fp.Phase
			continue
		}
		buf.Write(f.Data)
		buf.WriteByte('\n')
	}
	run, err := metrics.ReadRun(&buf)
	if err != nil {
		return nil, "", err
	}
	return run, phase, nil
}
