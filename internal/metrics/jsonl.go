package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Run is the parsed (or snapshotted) content of one telemetry export —
// everything cmd/aiacreport needs to render a dashboard.
type Run struct {
	Manifest Manifest
	// Samples[rank] is that node's time series in virtual-time order.
	Samples [][]NodeSample
	Events  []Event
	// EventsDropped counts events beyond the sink's cap.
	EventsDropped uint64

	// Runtime aggregates.
	Delivered uint64
	Control   uint64
	QueueMax  float64
	Latency   HistSnapshot
	// Faults[rank] is the count of injected faults on inbound links.
	Faults []uint64
}

// Snapshot copies the sink's state into a Run. Call after the run ends.
func (s *Sink) Snapshot() *Run {
	if s == nil {
		return &Run{}
	}
	r := &Run{
		Manifest:  s.Manifest,
		Samples:   make([][]NodeSample, len(s.nodes)),
		Delivered: s.Delivered.Value(),
		Control:   s.Control.Value(),
		QueueMax:  s.QueueMax.Value(),
		Latency:   s.Latency.Snapshot(),
		Faults:    make([]uint64, len(s.faults)),
	}
	for i := range s.nodes {
		r.Samples[i] = append([]NodeSample(nil), s.nodes[i].samples...)
	}
	for i := range s.faults {
		r.Faults[i] = s.faults[i].Value()
	}
	r.Events, r.EventsDropped = s.Events()
	return r
}

// JSONL line wrappers. Every line is a JSON object with a "type" field:
// "manifest" (first line), then "sample" per accepted node sample, "event"
// per timeline event, and one final "runtime" line with the messaging
// aggregates. Unknown types are skipped on read, so the format can grow.
type lineManifest struct {
	Type     string   `json:"type"`
	Manifest Manifest `json:"manifest"`
}

type lineSample struct {
	Type string `json:"type"`
	Node int    `json:"node"`
	NodeSample
}

type lineEvent struct {
	Type string `json:"type"`
	Event
}

type lineRuntime struct {
	Type          string       `json:"type"`
	Delivered     uint64       `json:"delivered"`
	Control       uint64       `json:"control"`
	QueueMax      float64      `json:"queue_max"`
	Latency       HistSnapshot `json:"latency"`
	Faults        []uint64     `json:"faults,omitempty"`
	EventsDropped uint64       `json:"events_dropped,omitempty"`
}

func (r *Run) runtimeLine() lineRuntime {
	return lineRuntime{
		Type: "runtime", Delivered: r.Delivered, Control: r.Control,
		QueueMax: r.QueueMax, Latency: r.Latency, Faults: r.Faults,
		EventsDropped: r.EventsDropped,
	}
}

// ManifestLine, SampleLine, EventLine and RuntimeLine encode one line of the
// format each, without the newline — for a consumer that ships lines one at
// a time (the SSE frames of internal/report) instead of writing a file.
func ManifestLine(m Manifest) []byte {
	return mustLine(lineManifest{Type: "manifest", Manifest: m})
}

func SampleLine(node int, sm NodeSample) []byte {
	return mustLine(lineSample{Type: "sample", Node: node, NodeSample: sm})
}

func EventLine(ev Event) []byte { return mustLine(lineEvent{Type: "event", Event: ev}) }

func (r *Run) RuntimeLine() []byte { return mustLine(r.runtimeLine()) }

func mustLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All line types marshal by construction.
		panic(fmt.Sprintf("metrics: line encode: %v", err))
	}
	return b
}

// WriteJSONL serializes the run: one manifest line, the samples in node
// order, the events, and the runtime aggregates.
func (r *Run) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(lineManifest{Type: "manifest", Manifest: r.Manifest}); err != nil {
		return err
	}
	for node, row := range r.Samples {
		for _, sm := range row {
			if err := enc.Encode(lineSample{Type: "sample", Node: node, NodeSample: sm}); err != nil {
				return err
			}
		}
	}
	for _, ev := range r.Events {
		if err := enc.Encode(lineEvent{Type: "event", Event: ev}); err != nil {
			return err
		}
	}
	if err := enc.Encode(r.runtimeLine()); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile writes the run to path as JSONL: the write half of ReadRunFile.
func (r *Run) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteJSONL exports the sink's collected state (Snapshot + WriteJSONL).
func (s *Sink) WriteJSONL(w io.Writer) error { return s.Snapshot().WriteJSONL(w) }

// ReadRun parses a JSONL export.
func ReadRun(rd io.Reader) (*Run, error) {
	r := &Run{}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	sawManifest := false
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return nil, fmt.Errorf("metrics: line %d: %v", lineNo, err)
		}
		switch head.Type {
		case "manifest":
			var lm lineManifest
			if err := json.Unmarshal(line, &lm); err != nil {
				return nil, fmt.Errorf("metrics: line %d: %v", lineNo, err)
			}
			r.Manifest = lm.Manifest
			sawManifest = true
		case "sample":
			var ls lineSample
			if err := json.Unmarshal(line, &ls); err != nil {
				return nil, fmt.Errorf("metrics: line %d: %v", lineNo, err)
			}
			if ls.Node < 0 {
				return nil, fmt.Errorf("metrics: line %d: negative node", lineNo)
			}
			for len(r.Samples) <= ls.Node {
				r.Samples = append(r.Samples, nil)
			}
			r.Samples[ls.Node] = append(r.Samples[ls.Node], ls.NodeSample)
		case "event":
			var le lineEvent
			if err := json.Unmarshal(line, &le); err != nil {
				return nil, fmt.Errorf("metrics: line %d: %v", lineNo, err)
			}
			r.Events = append(r.Events, le.Event)
		case "runtime":
			var lr lineRuntime
			if err := json.Unmarshal(line, &lr); err != nil {
				return nil, fmt.Errorf("metrics: line %d: %v", lineNo, err)
			}
			r.Delivered, r.Control = lr.Delivered, lr.Control
			r.QueueMax, r.Latency = lr.QueueMax, lr.Latency
			r.Faults, r.EventsDropped = lr.Faults, lr.EventsDropped
		default:
			// future line types: skip
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawManifest {
		return nil, fmt.Errorf("metrics: no manifest line found")
	}
	return r, nil
}

// ReadRunFile opens and parses a JSONL export.
func ReadRunFile(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := ReadRun(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
