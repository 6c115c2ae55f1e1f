package report

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"aiac/internal/metrics"
)

// Streaming dashboard codec. A run is streamed as a sequence of Frames over
// Server-Sent Events; each frame's payload is one line of the metrics JSONL
// format (type "manifest" / "sample" / "event" / "runtime"), plus a "phase"
// frame type marking lifecycle transitions. Because the payloads ARE the
// JSONL lines, a follower rebuilds the run with metrics.ReadRun and renders
// the same dashboard the server would — and a finished run is replayed by
// framing its stored lines (Stream), so the byte stream is a pure function
// of the stored telemetry, deterministic and golden-testable.

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

// The phase frames every replay carries, encoded once and shared: a Frame's
// Data is read-only to whoever holds it.
var (
	phaseRunning = PhaseFrame(metrics.PhaseRunning)
	phaseDone    = PhaseFrame(metrics.PhaseDone)
)

func SampleFrame(node int, sm metrics.NodeSample) Frame {
	return Frame{Event: FrameSample, Data: metrics.SampleLine(node, sm)}
}

func EventFrame(ev metrics.Event) Frame {
	return Frame{Event: FrameEvent, Data: metrics.EventLine(ev)}
}

func RuntimeFrame(run *metrics.Run) Frame {
	return Frame{Event: FrameRuntime, Data: run.RuntimeLine()}
}

// Stream replays a stored telemetry export as the canonical frame sequence:
// the manifest, phase "running", then samples and events merged in
// virtual-time order (ties: samples before events, samples by ascending
// node, then stored order), the runtime aggregates, and a terminal phase
// frame. Every frame but the phase frames carries a line of the export
// verbatim: only the manifest is decoded, to learn whether the run sealed
// and how many ranks its samples may name, and each sample and event is
// ordered by the time metrics.SampleKey and metrics.EventTime read off its
// line. The output is a pure function of the stored bytes, so streaming the
// same export twice yields identical bytes.
//
// An export must end with a newline-terminated runtime line, the last line
// the writer produces; one cut short (a crash mid-write) is an error, as is a
// line that is not shaped as the writer shapes it, or an export that
// metrics.ReadRun refuses for the ranks its samples name (that check decodes
// the runtime line only when the export has fewer lines than ranks). Lines
// of an unknown type are skipped.
func Stream(export []byte) ([]Frame, error) {
	type item struct {
		t    float64
		kind int // 0 = sample, 1 = event; samples first at equal t
		node int // samples only
		f    Frame
	}
	if bytes.IndexByte(export, '\r') >= 0 {
		// The writer escapes every CR; a bare one would end an SSE line.
		return nil, fmt.Errorf("report: export holds a carriage return")
	}
	items := make([]item, 0, bytes.Count(export, []byte("\n")))
	var manifest []byte
	maxNode := -1
	// What Stream reads of the latest manifest: p bounds the sample lines
	// after it (0 before the first manifest) and, in the last manifest, all
	// of them, as metrics.ReadRun bounds them for a follower; the outcome
	// says whether the run sealed.
	type manifestHead struct {
		Manifest struct {
			P       int             `json:"p"`
			Outcome json.RawMessage `json:"outcome"`
		} `json:"manifest"`
	}
	var head manifestHead
	for rest, lineNo := export, 1; len(rest) > 0; lineNo++ {
		line, after, _ := bytes.Cut(rest, []byte("\n"))
		rest = after
		if len(line) == 0 {
			continue
		}
		typ, ok := metrics.LineType(line)
		if !ok {
			return nil, fmt.Errorf("report: export line %d has no type", lineNo)
		}
		var err error
		switch string(typ) {
		case FrameManifest:
			manifest, head = line, manifestHead{}
			if err := json.Unmarshal(line, &head); err != nil {
				return nil, fmt.Errorf("report: manifest line %d: %v", lineNo, err)
			}
		case FrameSample:
			it := item{kind: 0, f: Frame{Event: FrameSample, Data: line}}
			it.node, it.t, err = metrics.SampleKey(line)
			if err == nil && it.node >= head.Manifest.P {
				return nil, fmt.Errorf("report: export line %d: sample node %d is not a rank of the manifest before it", lineNo, it.node)
			}
			items = append(items, it)
			maxNode = max(maxNode, it.node)
		case FrameEvent:
			it := item{kind: 1, f: Frame{Event: FrameEvent, Data: line}}
			it.t, err = metrics.EventTime(line)
			items = append(items, it)
		}
		if err != nil {
			return nil, fmt.Errorf("report: export line %d: %w", lineNo, err)
		}
	}
	if manifest == nil {
		return nil, fmt.Errorf("report: export has no manifest line")
	}
	runtime, ok := metrics.RuntimeTail(export)
	if !ok {
		return nil, fmt.Errorf("report: export does not end with a newline-terminated runtime line: it was cut short")
	}
	if maxNode >= head.Manifest.P {
		return nil, fmt.Errorf("report: a sample names rank %d, but the last manifest has p = %d", maxNode, head.Manifest.P)
	}
	if parts := 1 + len(items); maxNode >= parts {
		// metrics.ReadRun's other bound, which a follower meets: no rank
		// above the run's parts, which also count the runtime line's faults.
		var rt struct {
			Faults []uint64 `json:"faults"`
		}
		if err := json.Unmarshal(runtime, &rt); err != nil || maxNode >= parts+len(rt.Faults) {
			return nil, fmt.Errorf("report: a sample names rank %d of a run of fewer parts", maxNode)
		}
	}

	// Stable: equal keys keep stored order, which is node-major for samples
	// (WriteJSONL) and canonical for events (Sink.Events).
	slices.SortStableFunc(items, func(a, b item) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		if c := cmp.Compare(a.kind, b.kind); c != 0 {
			return c
		}
		return cmp.Compare(a.node, b.node)
	})
	frames := make([]Frame, 0, len(items)+4)
	frames = append(frames, Frame{Event: FrameManifest, Data: manifest}, phaseRunning)
	for _, it := range items {
		frames = append(frames, it.f)
	}
	end := phaseDone
	if o := head.Manifest.Outcome; len(o) == 0 || string(o) == "null" {
		// An unsealed run (crashed or still live when exported) has no
		// outcome; report it as still running so followers keep waiting.
		end = phaseRunning
	}
	frames = append(frames, Frame{Event: FrameRuntime, Data: runtime}, end)
	return frames, nil
}

// WriteSSEStream encodes a frame sequence in Server-Sent Events wire format.
// A frame whose payload holds a newline would corrupt the wire format: it is
// refused, and then nothing is written.
func WriteSSEStream(w io.Writer, frames []Frame) error {
	for _, f := range frames {
		if bytes.ContainsAny(f.Data, "\n\r") {
			return fmt.Errorf("report: frame payload contains newline")
		}
	}
	for _, f := range frames {
		for _, s := range [...]string{"event: ", f.Event, "\ndata: "} {
			if _, err := io.WriteString(w, s); err != nil {
				return err
			}
		}
		if _, err := w.Write(f.Data); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n\n"); err != nil {
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
