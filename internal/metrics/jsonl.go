package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
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

// Every line struct declares Type first, and encoding/json writes fields in
// declaration order. So a line the writer produced opens with typeHead, a
// sample line goes on with the node and then t (lineSample: Type, Node, then
// NodeSample's T), and an event line with t (lineEvent: Type, then Event's
// T). LineType, SampleKey and EventTime read those fields where that order
// puts them, without decoding the rest of the line.
const (
	typeHead   = `{"type":"`
	sampleHead = `{"type":"sample","node":`
	eventHead  = `{"type":"event","t":`
)

// LineType returns the type name a line opens with, and false for a line
// that does not open with a "type" string field.
func LineType(line []byte) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(typeHead))
	if !ok {
		return nil, false
	}
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return nil, false
	}
	return rest[:end], true
}

// SampleKey reads a "sample" line's node and virtual time. It rejects a line
// that does not have lineSample's shape there: a non-negative integer node,
// then a finite JSON number t followed by more fields, and a closing brace.
func SampleKey(line []byte) (node int, t float64, err error) {
	rest, ok := bytes.CutPrefix(line, []byte(sampleHead))
	if !ok || !bytes.HasSuffix(line, []byte("}")) {
		return 0, 0, errLine("sample")
	}
	num, rest := cutNumber(rest)
	rest, ok = bytes.CutPrefix(rest, []byte(`,"t":`))
	if !ok || bytes.ContainsAny(num, "-.eE") {
		return 0, 0, errLine("sample")
	}
	if node, err = strconv.Atoi(string(num)); err != nil {
		return 0, 0, errLine("sample")
	}
	if t, err = timeField(rest); err != nil {
		return 0, 0, errLine("sample")
	}
	return node, t, nil
}

// EventTime reads an "event" line's virtual time, rejecting a line that does
// not have lineEvent's shape there.
func EventTime(line []byte) (float64, error) {
	rest, ok := bytes.CutPrefix(line, []byte(eventHead))
	if !ok || !bytes.HasSuffix(line, []byte("}")) {
		return 0, errLine("event")
	}
	t, err := timeField(rest)
	if err != nil {
		return 0, errLine("event")
	}
	return t, nil
}

// timeField parses the JSON number b opens with, which more fields must
// follow.
func timeField(b []byte) (float64, error) {
	num, rest := cutNumber(b)
	if len(num) == 0 || !bytes.HasPrefix(rest, []byte(",")) {
		return 0, strconv.ErrSyntax
	}
	return strconv.ParseFloat(string(num), 64) // out of range: ErrRange, as encoding/json refuses it
}

// cutNumber splits b after the JSON number it opens with
// (-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?); num is empty when b does
// not open with one.
func cutNumber(b []byte) (num, rest []byte) {
	i := 0
	accept := func(chars string) bool {
		if i < len(b) && strings.IndexByte(chars, b[i]) >= 0 {
			i++
			return true
		}
		return false
	}
	digits := func() (n int) {
		for accept("0123456789") {
			n++
		}
		return n
	}
	accept("-")
	if n := digits(); n == 0 || n > 1 && b[i-n] == '0' {
		return nil, b
	}
	if accept(".") && digits() == 0 {
		return nil, b
	}
	if accept("eE") {
		accept("+-")
		if digits() == 0 {
			return nil, b
		}
	}
	return b[:i], b[i:]
}

func errLine(typ string) error {
	return fmt.Errorf("metrics: not a %s line as the writer produces it", typ)
}

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

// ReadRun parses a JSONL export. A sample line must name a rank below the
// p of the manifest line before it.
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
			// The writer puts the manifest first, and the engine fills its p:
			// a node the manifest before it does not count is malformed, and
			// no untrusted index sizes Samples.
			if ls.Node < 0 || !sawManifest || ls.Node >= r.Manifest.P {
				return nil, fmt.Errorf("metrics: line %d: sample node %d is not a rank of the manifest before it", lineNo, ls.Node)
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
