package report

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"aiac/internal/engine"
	"aiac/internal/fault"
	"aiac/internal/loadbalance"
	"aiac/internal/metrics"
)

// oracleStream is the replay Stream replaced, kept as its reference: decode
// the whole export, re-encode every line, merge samples and events by
// (t, kind) with a stable sort over node-major samples then stored events.
func oracleStream(export []byte) ([]Frame, error) {
	run, err := metrics.ReadRun(bytes.NewReader(export))
	if err != nil {
		return nil, err
	}
	frames := []Frame{ManifestFrame(run.Manifest), PhaseFrame(metrics.PhaseRunning)}
	type item struct {
		t    float64
		kind int
		f    Frame
	}
	var items []item
	for node, row := range run.Samples {
		for _, sm := range row {
			items = append(items, item{sm.T, 0, SampleFrame(node, sm)})
		}
	}
	for _, ev := range run.Events {
		items = append(items, item{ev.T, 1, EventFrame(ev)})
	}
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
		phase = metrics.PhaseRunning
	}
	return append(frames, PhaseFrame(phase)), nil
}

func sseBytes(t testing.TB, frames []Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSSEStream(&buf, frames); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkAgainstOracle requires Stream and the oracle to frame export into
// byte-identical SSE.
func checkAgainstOracle(t *testing.T, export []byte) {
	t.Helper()
	got, err := Stream(export)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleStream(export)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := sseBytes(t, got), sseBytes(t, want); !bytes.Equal(g, w) {
		t.Fatalf("Stream differs from the decode/re-encode replay:\n--- got ---\n%.2000s\n--- want ---\n%.2000s", g, w)
	}
}

// TestStreamMatchesOracle: framing the stored lines gives the bytes that
// decoding and re-encoding them gave, on every shape of export the writer
// produces.
func TestStreamMatchesOracle(t *testing.T) {
	lb := func(cfg *engine.Config) {
		cfg.LB = loadbalance.DefaultPolicy()
		cfg.LB.Period = 10
		cfg.LB.MinKeep = 2
	}
	runs := map[string]func(*engine.Config){
		"load-balancing": lb,
		"faults": func(cfg *engine.Config) {
			lb(cfg)
			cfg.Faults = &fault.Plan{Seed: 9, Msg: fault.Rates{Drop: 0.05, Dup: 0.02, Reorder: 0.02}}
		},
		"dropped-events": func(cfg *engine.Config) { cfg.Metrics.EventCap = 2 },
	}
	for name, edit := range runs {
		t.Run(name, func(t *testing.T) {
			run := goldenRunWith(t, name, edit)
			switch name {
			case "faults":
				if run.Manifest.Outcome.Faults == (fault.Stats{}) {
					t.Fatal("the plan injected no fault")
				}
			case "dropped-events":
				if run.EventsDropped == 0 {
					t.Fatal("the sink dropped no event")
				}
			}
			checkAgainstOracle(t, export(t, run))
		})
	}
	t.Run("unsealed", func(t *testing.T) {
		run := goldenRun(t, false, "unsealed")
		run.Manifest.Outcome = nil
		checkAgainstOracle(t, export(t, run))
	})
	t.Run("unknown-line-type", func(t *testing.T) {
		lines := bytes.SplitAfter(export(t, goldenRun(t, false, "future")), []byte("\n"))
		var b []byte
		for i, line := range lines {
			b = append(b, line...)
			if i == 0 || i == len(lines)/2 {
				b = append(b, `{"type":"future-thing","t":0,"x":[1,2]}`+"\n"...)
			}
		}
		checkAgainstOracle(t, b)
	})
	t.Run("equal-times", func(t *testing.T) {
		// Nodes interleaved at equal t, out of time order: the oracle
		// orders them by node, then by stored order.
		sample := func(node, iter int, t float64) []byte {
			return metrics.SampleLine(node, metrics.NodeSample{T: t, Iter: iter})
		}
		b := bytes.Join([][]byte{
			metrics.ManifestLine(metrics.Manifest{Name: "eq", P: 2}),
			sample(1, 1, 1),
			metrics.EventLine(metrics.Event{T: 1, Name: "conv"}),
			sample(0, 2, 1),
			sample(0, 1, 0.5),
			sample(1, 2, 1),
			(&metrics.Run{}).RuntimeLine(),
		}, []byte("\n"))
		checkAgainstOracle(t, append(b, '\n'))
	})
	t.Run("sample-outside-p", func(t *testing.T) {
		// A follower's metrics.ReadRun refuses a sample of a rank the
		// manifest before it or the last one does not count, or one above
		// the run's parts (a forged p), so the replay must too.
		for _, b := range [][]byte{
			[]byte(`{"type":"manifest","manifest":{"p":2}}` + "\n" + `{"type":"sample","node":2,"t":1,"iter":0}` + "\n"),
			[]byte(`{"type":"sample","node":0,"t":1,"iter":0}` + "\n" + `{"type":"manifest","manifest":{"p":2}}` + "\n"),
			[]byte(`{"type":"manifest","manifest":{"p":3}}` + "\n" + strings.Repeat(`{"type":"sample","node":2,"t":1,"iter":0}`+"\n", 3) + `{"type":"manifest","manifest":{"p":2}}` + "\n"),
			[]byte(`{"type":"manifest","manifest":{"p":2000000}}` + "\n" + `{"type":"sample","node":1999999,"t":1,"iter":0}` + "\n"),
		} {
			b = append(b, (&metrics.Run{}).RuntimeLine()...)
			b = append(b, '\n')
			if _, err := oracleStream(b); err == nil {
				t.Fatalf("the oracle replays %q", b)
			}
			if _, err := Stream(b); err == nil {
				t.Fatalf("Stream replays %q", b)
			}
		}
	})
}

// TestStreamRejectsTornExport: an export cut short at any line boundary
// before the end, or inside its runtime line, is an error, not a run.
func TestStreamRejectsTornExport(t *testing.T) {
	b := export(t, goldenRun(t, false, "torn"))
	if _, err := Stream(b); err != nil {
		t.Fatal(err)
	}
	cuts := []int{len(b) - 1, len(b) - 2}
	for i := 1; i < len(b); i++ {
		if b[i-1] == '\n' {
			cuts = append(cuts, i)
		}
	}
	for _, cut := range cuts {
		if _, err := Stream(b[:cut]); err == nil {
			t.Fatalf("export cut to %d of %d bytes replayed", cut, len(b))
		}
	}
}

// canonical reports whether every line of export is a line the writer could
// have produced: one that decoding and re-encoding gives back unchanged, or
// for a type the reader does not know, a JSON object opening with its type.
// Only such exports are held to byte equality with the oracle; any other
// line is served as stored, which the oracle would have rewritten.
func canonical(export []byte) bool {
	for _, line := range bytes.Split(export, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if bytes.IndexByte(line, '\r') >= 0 {
			return false // the writer escapes every CR
		}
		var head struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(line, &head) != nil {
			return false
		}
		var re []byte
		switch head.Type {
		case FrameManifest:
			var l struct {
				Manifest metrics.Manifest `json:"manifest"`
			}
			if json.Unmarshal(line, &l) != nil {
				return false
			}
			re = metrics.ManifestLine(l.Manifest)
		case FrameSample:
			var l struct {
				Node int `json:"node"`
				metrics.NodeSample
			}
			// A bounded node keeps the oracle's per-node rows small.
			if json.Unmarshal(line, &l) != nil || l.Node < 0 || l.Node > 1024 {
				return false
			}
			re = metrics.SampleLine(l.Node, l.NodeSample)
		case FrameEvent:
			var l struct{ metrics.Event }
			if json.Unmarshal(line, &l) != nil {
				return false
			}
			re = metrics.EventLine(l.Event)
		case FrameRuntime:
			run, err := metrics.ReadRun(bytes.NewReader(append([]byte(`{"type":"manifest","manifest":{}}`+"\n"), line...)))
			if err != nil {
				return false
			}
			re = run.RuntimeLine()
		default:
			typ, _ := json.Marshal(head.Type)
			if !json.Valid(line) || !bytes.HasPrefix(line, append([]byte(`{"type":`), typ...)) {
				return false
			}
			re = line
		}
		if !bytes.Equal(re, line) {
			return false
		}
	}
	return true
}

// sealedEnd reports whether export's last non-empty line is a
// newline-terminated runtime line: the replay's torn-export rule.
func sealedEnd(export []byte) bool {
	trimmed := bytes.TrimRight(export, "\n")
	if len(trimmed) == len(export) {
		return false
	}
	last := trimmed[bytes.LastIndexByte(trimmed, '\n')+1:]
	return bytes.HasPrefix(last, []byte(`{"type":"runtime",`))
}

// streamSeeds are FuzzStream's starting exports: a few lines of the golden
// stream put back into an export (its payloads are the stored lines), and
// three edits of it: unsealed, with an unknown line type, and torn.
func streamSeeds(t testing.TB) [][]byte {
	sse, err := os.ReadFile(filepath.Join("testdata", "stream.golden.sse"))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := ReadSSE(bytes.NewReader(sse))
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, f := range frames {
		if f.Event != FramePhase {
			lines = append(lines, f.Data)
		}
	}
	join := func(ls ...[]byte) []byte { return append(bytes.Join(ls, []byte("\n")), '\n') }
	var m struct {
		Manifest metrics.Manifest `json:"manifest"`
	}
	if err := json.Unmarshal(lines[0], &m); err != nil {
		t.Fatal(err)
	}
	m.Manifest.Outcome = nil
	n := len(lines)
	short := join(lines[0], lines[1], lines[2], lines[n-3], lines[n-2], lines[n-1])
	return [][]byte{
		short,
		join(metrics.ManifestLine(m.Manifest), lines[1], lines[n-2], lines[n-1]),
		join(lines[0], []byte(`{"type":"future-thing","x":1}`), lines[n-1]),
		short[:len(short)-1], // torn: the runtime line lost its newline
	}
}

// FuzzStream: replay never panics on any export; it either errors or frames
// stored lines only; and on an export whose every line the writer could
// have produced it errors exactly when the oracle does or the export is
// torn, and otherwise gives the oracle's bytes.
func FuzzStream(f *testing.F) {
	for _, s := range streamSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, export []byte) {
		got, err := Stream(export)
		if err == nil {
			lines := map[string]bool{}
			for _, line := range bytes.Split(export, []byte("\n")) {
				lines[string(line)] = true
			}
			if len(got) < 4 || got[0].Event != FrameManifest || got[len(got)-2].Event != FrameRuntime {
				t.Fatalf("frame sequence is misshapen: %d frames", len(got))
			}
			for _, fr := range got {
				if fr.Event != FramePhase && !lines[string(fr.Data)] {
					t.Fatalf("frame %q carries %q, which is no stored line", fr.Event, fr.Data)
				}
			}
			if _, werr := ReadSSE(bytes.NewReader(sseBytes(t, got))); werr != nil {
				t.Fatal(werr)
			}
		}
		if !canonical(export) {
			return
		}
		want, oerr := oracleStream(export)
		switch {
		case oerr != nil || !sealedEnd(export):
			if err == nil {
				t.Fatalf("Stream replayed an export the oracle refuses (%v) or that is torn", oerr)
			}
		case err != nil:
			t.Fatalf("Stream refused an export the oracle replays: %v", err)
		case !bytes.Equal(sseBytes(t, got), sseBytes(t, want)):
			t.Fatalf("Stream differs from the oracle:\n--- got ---\n%s\n--- want ---\n%s", sseBytes(t, got), sseBytes(t, want))
		}
	})
}

// FuzzReadSSE: parsing any byte stream never panics, and what it parses
// survives a write and a re-read unchanged whenever it is writable (no
// newline inside a payload).
func FuzzReadSSE(f *testing.F) {
	sse, err := os.ReadFile(filepath.Join("testdata", "stream.golden.sse"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sse[:2048]) // the golden stream's opening frames
	f.Add(sse[len(sse)-2048:])
	f.Add([]byte(": keepalive\nevent: phase\ndata: {\"type\":\"phase\",\"phase\":\"running\"}\n\n: another\nretry: 100\nevent: runtime\ndata: {\"type\":\"runtime\"}\n"))
	f.Add([]byte("data: a\ndata: b\r\n\nevent:x\n\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		frames, err := ReadSSE(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if WriteSSEStream(&buf, frames) != nil {
			for _, fr := range frames {
				if !bytes.ContainsAny(fr.Data, "\n\r") {
					continue
				}
				return // a multi-line payload: refused by design
			}
			t.Fatal("WriteSSEStream refused frames with single-line payloads")
		}
		again, err := ReadSSE(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(frames) {
			t.Fatalf("re-read %d frames, want %d", len(again), len(frames))
		}
		for i := range frames {
			if again[i].Event != frames[i].Event || !bytes.Equal(again[i].Data, frames[i].Data) {
				t.Fatalf("frame %d: re-read %q %q, want %q %q", i, again[i].Event, again[i].Data, frames[i].Event, frames[i].Data)
			}
		}
	})
}
