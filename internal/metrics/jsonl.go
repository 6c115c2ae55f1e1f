package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"
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
	return mustLine(json.Marshal(lineManifest{Type: "manifest", Manifest: m}))
}

func SampleLine(node int, sm NodeSample) []byte {
	return mustLine(appendSample(make([]byte, 0, lineCap), node, sm))
}

func EventLine(ev Event) []byte { return mustLine(appendEvent(make([]byte, 0, lineCap), ev)) }

func (r *Run) RuntimeLine() []byte { return mustLine(json.Marshal(r.runtimeLine())) }

// lineCap holds a sample line of typical values in one allocation.
const lineCap = 256

// Sample and event lines, nearly all of an export, are appended field by
// field instead of marshalled: appendSample and appendEvent write what
// encoding/json writes for lineSample and lineEvent — fields in declaration
// order, its float and string formats — and a test holds them to json.Marshal
// byte for byte. The manifest and runtime lines, one each per run, stay on
// encoding/json, and their structs declare Type first. So every line the
// writer produces opens with typeHead, a sample line goes on with the node and
// then t, and an event line with t. LineType, SampleKey and EventTime read
// those fields where that order puts them, without decoding the rest of the
// line.
const (
	typeHead   = `{"type":"`
	sampleHead = `{"type":"sample","node":`
	eventHead  = `{"type":"event","t":`
)

// appendSample appends node's sample as a line, without the newline. A NaN
// or an infinity is an error, as it is to encoding/json, and leaves b as it
// was.
func appendSample(b []byte, node int, sm NodeSample) ([]byte, error) {
	for _, f := range [...]float64{sm.T, sm.Residual, sm.HaloAge, sm.IdleFrac, sm.Work, sm.Busy} {
		if err := finite(f); err != nil {
			return b, err
		}
	}
	b = append(b, sampleHead...)
	b = strconv.AppendInt(b, int64(node), 10)
	b = appendFloat(append(b, `,"t":`...), sm.T)
	b = strconv.AppendInt(append(b, `,"iter":`...), int64(sm.Iter), 10)
	b = appendFloat(append(b, `,"residual":`...), sm.Residual)
	b = strconv.AppendInt(append(b, `,"count":`...), int64(sm.Count), 10)
	b = strconv.AppendInt(append(b, `,"queue":`...), int64(sm.Queue), 10)
	b = appendFloat(append(b, `,"halo_age":`...), sm.HaloAge)
	b = appendFloat(append(b, `,"idle_frac":`...), sm.IdleFrac)
	b = strconv.AppendInt(append(b, `,"lb_pending":`...), int64(sm.LBPending), 10)
	b = strconv.AppendUint(append(b, `,"msgs_sent":`...), sm.MsgsSent, 10)
	b = strconv.AppendUint(append(b, `,"msgs_recv":`...), sm.MsgsRecv, 10)
	b = strconv.AppendUint(append(b, `,"faults":`...), sm.Faults, 10)
	b = appendFloat(append(b, `,"work":`...), sm.Work)
	b = appendFloat(append(b, `,"busy":`...), sm.Busy)
	return append(b, '}'), nil
}

// appendEvent appends ev as a line, without the newline; a non-finite t is
// an error and leaves b as it was.
func appendEvent(b []byte, ev Event) ([]byte, error) {
	if err := finite(ev.T); err != nil {
		return b, err
	}
	b = appendFloat(append(b, eventHead...), ev.T)
	b = strconv.AppendInt(append(b, `,"node":`...), int64(ev.Node), 10)
	b = appendString(append(b, `,"name":`...), ev.Name)
	if ev.Detail != "" {
		b = appendString(append(b, `,"detail":`...), ev.Detail)
	}
	return append(b, '}'), nil
}

func finite(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("metrics: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	return nil
}

// appendFloat formats a finite f as encoding/json does (ES6 number to
// string): plain decimal digits from 1e-6 up to but excluding 1e21, an
// exponent outside that range, whose leading zero is dropped (e-7, not
// e-07).
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs == 0 || 1e-6 <= abs && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString quotes s as encoding/json does with HTML escaping on, its
// default: `"` and `\` backslash-escaped, \b \f \n \r \t by name, other
// control characters and <, >, & as \u00XX, U+2028 and U+2029 as \u202X,
// and each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

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

// RuntimeTail returns the export's last line when it is a newline-terminated
// runtime line, the line the writer ends every export with. ok is false for
// an export cut short: by a crash mid-write, or read while being written.
func RuntimeTail(export []byte) (line []byte, ok bool) {
	body := bytes.TrimRight(export, "\n")
	if len(body) == len(export) {
		return nil, false
	}
	line = body[bytes.LastIndexByte(body, '\n')+1:]
	if !bytes.HasPrefix(line, []byte(`{"type":"runtime",`)) || !bytes.HasSuffix(line, []byte("}")) {
		return nil, false
	}
	return line, true
}

func errLine(typ string) error {
	return fmt.Errorf("metrics: not a %s line as the writer produces it", typ)
}

func mustLine(b []byte, err error) []byte {
	if err != nil {
		// Every field is finite in a sink's run; NaN and infinities are not JSON.
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
	// One line buffer for every sample and event: it grows to the longest
	// line once, so the export allocates no more for more lines.
	var line []byte
	var err error
	for node, row := range r.Samples {
		for _, sm := range row {
			if line, err = appendSample(line[:0], node, sm); err != nil {
				return err
			}
			if _, err = bw.Write(append(line, '\n')); err != nil {
				return err
			}
		}
	}
	for _, ev := range r.Events {
		if line, err = appendEvent(line[:0], ev); err != nil {
			return err
		}
		if _, err = bw.Write(append(line, '\n')); err != nil {
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
// p of the manifest line before it, and of the last one. And Samples, one
// row per rank up to the largest sampled, never has more rows than the run
// has parts: its manifest, sample lines, events, and the runtime line's
// fault counts (the writer puts one there per rank). So a forged p sizes
// nothing, and the memory ReadRun takes stays proportional to its input.
func ReadRun(rd io.Reader) (*Run, error) {
	r := &Run{}
	rows := map[int][]NodeSample{}
	nSamples, maxNode := 0, -1
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
			// a node the manifest before it does not count is malformed.
			if ls.Node < 0 || !sawManifest || ls.Node >= r.Manifest.P {
				return nil, fmt.Errorf("metrics: line %d: sample node %d is not a rank of the manifest before it", lineNo, ls.Node)
			}
			rows[ls.Node] = append(rows[ls.Node], ls.NodeSample)
			nSamples++
			maxNode = max(maxNode, ls.Node)
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
	if maxNode >= r.Manifest.P {
		return nil, fmt.Errorf("metrics: a sample names rank %d, but the last manifest has p = %d", maxNode, r.Manifest.P)
	}
	if parts := 1 + nSamples + len(r.Events) + len(r.Faults); maxNode >= parts {
		return nil, fmt.Errorf("metrics: a sample names rank %d of a run of %d parts", maxNode, parts)
	}
	if maxNode >= 0 {
		r.Samples = make([][]NodeSample, maxNode+1)
		for node, row := range rows {
			r.Samples[node] = row
		}
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
