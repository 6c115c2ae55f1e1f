package metrics

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"aiac/internal/runenv"
)

func TestNilInstruments(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	g.Max(7)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	if s := h.Snapshot(); s.Count != 0 || len(s.Counts) != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
	var sink *Sink
	sink.Sample(0, NodeSample{})
	sink.Event(0, 0, "x", "")
	sink.CountFault(0, 0)
	sink.MsgDelivered(runenv.Msg{}, 1)
	sink.FinishRun(Outcome{})
	if sink.FaultCount(0) != 0 || sink.Nodes() != 0 {
		t.Fatal("nil sink reported state")
	}
	if ev, dropped := sink.Events(); ev != nil || dropped != 0 {
		t.Fatal("nil sink reported events")
	}
	if r := sink.Snapshot(); r == nil {
		t.Fatal("nil sink snapshot")
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(2.5)
	g.Max(1) // lower: ignored
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %g after lower Max", g.Value())
	}
	g.Max(9)
	if g.Value() != 9 {
		t.Fatalf("gauge = %g, want 9", g.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(1e-3)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", s.Count)
	}
	if math.Abs(s.Sum-8.0) > 1e-9 {
		t.Fatalf("histogram sum = %g, want 8", s.Sum)
	}
}

func TestHistogramBuckets(t *testing.T) {
	if bucketOf(0) != 0 || bucketOf(histFloor) != 0 {
		t.Fatal("floor values must land in bucket 0")
	}
	if bucketOf(histFloor*1.5) != 1 {
		t.Fatalf("1.5×floor in bucket %d, want 1", bucketOf(histFloor*1.5))
	}
	if bucketOf(math.MaxFloat64) != histBuckets-1 {
		t.Fatal("huge values must land in the last bucket")
	}
	// each bucket's upper bound must land in that bucket
	for i := 0; i < histBuckets-1; i++ {
		if b := bucketOf(BucketBound(i)); b != i {
			t.Fatalf("BucketBound(%d) lands in bucket %d", i, b)
		}
	}
	if !math.IsInf(BucketBound(histBuckets-1), 1) {
		t.Fatal("last bucket bound must be +Inf")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(1e-3) // ~1 ms
	}
	for i := 0; i < 10; i++ {
		h.Observe(1.0) // 1 s
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if m := s.Mean(); math.Abs(m-(90*1e-3+10)/100) > 1e-9 {
		t.Fatalf("mean = %g", m)
	}
	p50 := s.Quantile(0.5)
	if p50 < 1e-3 || p50 > 3e-3 {
		t.Fatalf("p50 = %g, want around 1ms", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 1.0 || p99 > 3.0 {
		t.Fatalf("p99 = %g, want around 1s", p99)
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g", q)
	}
}

func TestSinkSamplePeriod(t *testing.T) {
	s := &Sink{Period: 1.0}
	s.Start(2)
	for i := 0; i < 100; i++ {
		s.Sample(0, NodeSample{T: float64(i) * 0.25, Iter: i})
	}
	got := s.Samples(0)
	// accepted at t=0, 1, 2, ... => 25 samples
	if len(got) != 25 {
		t.Fatalf("accepted %d samples, want 25", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].T-got[i-1].T < 1.0 {
			t.Fatalf("samples %d,%d closer than the period", i-1, i)
		}
	}
	if len(s.Samples(1)) != 0 {
		t.Fatal("node 1 has samples")
	}
	// out-of-range ranks are ignored
	s.Sample(-1, NodeSample{})
	s.Sample(2, NodeSample{})
}

func TestSinkIdleFrac(t *testing.T) {
	s := &Sink{}
	s.Start(1)
	// first sample: no window, IdleFrac stays 0
	s.Sample(0, NodeSample{T: 1, Busy: 1})
	// second: window 1s, busy delta 0.25s => idle 0.75
	s.Sample(0, NodeSample{T: 2, Busy: 1.25})
	got := s.Samples(0)
	if len(got) != 2 {
		t.Fatalf("samples: %d", len(got))
	}
	if got[0].IdleFrac != 0 {
		t.Fatalf("first IdleFrac = %g", got[0].IdleFrac)
	}
	if math.Abs(got[1].IdleFrac-0.75) > 1e-12 {
		t.Fatalf("IdleFrac = %g, want 0.75", got[1].IdleFrac)
	}
	// busy delta exceeding the window clamps to 0 idle
	s.Sample(0, NodeSample{T: 3, Busy: 5})
	got = s.Samples(0)
	if got[2].IdleFrac != 0 {
		t.Fatalf("clamped IdleFrac = %g", got[2].IdleFrac)
	}
}

func TestSinkThinning(t *testing.T) {
	s := &Sink{Cap: 64}
	s.Start(1)
	for i := 0; i < 10000; i++ {
		s.Sample(0, NodeSample{T: float64(i), Iter: i})
	}
	got := s.Samples(0)
	if len(got) >= 64 {
		t.Fatalf("buffer not bounded: %d samples", len(got))
	}
	if len(got) < 8 {
		t.Fatalf("thinning too aggressive: %d samples", len(got))
	}
	// coverage must span the whole run, not just a prefix
	if got[0].T > 100 || got[len(got)-1].T < 9000 {
		t.Fatalf("coverage [%g, %g] does not span the run", got[0].T, got[len(got)-1].T)
	}
	for i := 1; i < len(got); i++ {
		if got[i].T <= got[i-1].T {
			t.Fatal("thinned series not increasing in time")
		}
	}
}

func TestSinkEventsCap(t *testing.T) {
	s := &Sink{EventCap: 4}
	s.Start(1)
	for i := 0; i < 10; i++ {
		s.Event(float64(i), 0, "e", "")
	}
	ev, dropped := s.Events()
	if len(ev) != 4 || dropped != 6 {
		t.Fatalf("events %d dropped %d, want 4/6", len(ev), dropped)
	}
}

func TestSinkMsgDelivered(t *testing.T) {
	s := &Sink{}
	s.Start(2)
	s.MsgDelivered(runenv.Msg{Kind: 1, SendT: 0, RecvT: 0.5}, 3)
	s.MsgDelivered(runenv.Msg{Kind: runenv.ControlKindBase + 1, SendT: 0, RecvT: 0.1}, 7)
	if s.Delivered.Value() != 1 || s.Control.Value() != 1 {
		t.Fatalf("delivered=%d control=%d", s.Delivered.Value(), s.Control.Value())
	}
	if s.QueueMax.Value() != 7 {
		t.Fatalf("queue max = %g", s.QueueMax.Value())
	}
	if snap := s.Latency.Snapshot(); snap.Count != 2 {
		t.Fatalf("latency count = %d", snap.Count)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	s := &Sink{}
	s.Manifest = Manifest{
		Name: "unit", Mode: "AIAC", P: 2, Problem: "bruss", Tol: 1e-6,
		Seed: 42, LB: &LBManifest{Period: 20, MinKeep: 2, Threshold: 2, Lambda: 0.5, Estimator: "residual"},
	}
	s.Start(2)
	s.Sample(0, NodeSample{T: 1, Iter: 3, Residual: 0.5, Count: 8, Work: 100})
	s.Sample(1, NodeSample{T: 1.5, Iter: 2, Residual: 0.25, Count: 8, Work: 90})
	s.Event(2, -1, "halt", "")
	s.CountFault(1, 1)
	s.MsgDelivered(runenv.Msg{Kind: 1, SendT: 0, RecvT: 0.5}, 2)
	s.FinishRun(Outcome{Converged: true, Time: 2.5, TotalIters: 5})

	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// forward compatibility: inject an unknown line type mid-stream
	text := buf.String()
	lines := strings.SplitN(text, "\n", 2)
	text = lines[0] + "\n" + `{"type":"future-thing","x":1}` + "\n" + lines[1]

	r, err := ReadRun(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if r.Manifest.Name != "unit" || r.Manifest.Seed != 42 {
		t.Fatalf("manifest round-trip: %+v", r.Manifest)
	}
	if r.Manifest.LB == nil || r.Manifest.LB.Estimator != "residual" {
		t.Fatalf("LB manifest round-trip: %+v", r.Manifest.LB)
	}
	if r.Manifest.Outcome == nil || !r.Manifest.Outcome.Converged || r.Manifest.Outcome.TotalIters != 5 {
		t.Fatalf("outcome round-trip: %+v", r.Manifest.Outcome)
	}
	if len(r.Samples) != 2 || len(r.Samples[0]) != 1 || len(r.Samples[1]) != 1 {
		t.Fatalf("samples round-trip: %d nodes", len(r.Samples))
	}
	if r.Samples[0][0].Residual != 0.5 || r.Samples[1][0].Work != 90 {
		t.Fatalf("sample fields lost: %+v", r.Samples)
	}
	if len(r.Events) != 1 || r.Events[0].Name != "halt" || r.Events[0].Node != -1 {
		t.Fatalf("events round-trip: %+v", r.Events)
	}
	if r.Delivered != 1 || len(r.Faults) != 2 || r.Faults[1] != 1 {
		t.Fatalf("runtime aggregates round-trip: delivered=%d faults=%v", r.Delivered, r.Faults)
	}
	if r.Latency.Count != 1 {
		t.Fatalf("latency round-trip: %+v", r.Latency)
	}
}

func TestReadRunRejectsGarbage(t *testing.T) {
	if _, err := ReadRun(strings.NewReader("not json\n")); err == nil {
		t.Fatal("want error on non-JSON input")
	}
	if _, err := ReadRun(strings.NewReader(`{"type":"sample","node":0,"t":1}` + "\n")); err == nil {
		t.Fatal("want error when no manifest line is present")
	}
	if _, err := ReadRun(strings.NewReader(`{"type":"sample","node":-2}` + "\n")); err == nil {
		t.Fatal("want error on negative node")
	}
}

// TestReadRunBoundsSampleNodes: a sample line's node indexes Samples, so one
// the manifest before it, or the last manifest, does not count is refused.
func TestReadRunBoundsSampleNodes(t *testing.T) {
	manifest := string(ManifestLine(Manifest{P: 2})) + "\n"
	for _, bad := range []string{
		// The two cheap cases first: where the bound is missing they fail
		// the test before the third allocates gigabytes.
		manifest + `{"type":"sample","node":2,"t":1,"iter":0}` + "\n",
		`{"type":"sample","node":0,"t":1,"iter":0}` + "\n" + manifest,
		// the last manifest counts too: the export would not read back
		string(ManifestLine(Manifest{P: 3})) + "\n" + strings.Repeat(`{"type":"sample","node":2,"t":1,"iter":0}`+"\n", 3) + manifest,
		manifest + `{"type":"sample","node":1000000000,"t":1,"iter":0}` + "\n",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadRun(strings.NewReader(bad))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("want an error for %q", bad)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
			t.Fatalf("%q: allocated %d bytes", bad, b)
		}
	}
	r, err := ReadRun(strings.NewReader(manifest + `{"type":"sample","node":1,"t":1,"iter":0}` + "\n"))
	if err != nil || len(r.Samples) != 2 || len(r.Samples[1]) != 1 {
		t.Fatalf("a sample of the last rank: %v, %+v", err, r)
	}
}

// TestReadRunMemoryFollowsItsInput: a manifest's p is one number, so a
// forged one with a sample just below it sizes nothing; a sparse export that
// accounts for its ranks in its runtime line, as a dist worker's does, still
// reads.
func TestReadRunMemoryFollowsItsInput(t *testing.T) {
	forged := `{"type":"manifest","manifest":{"p":2000000}}` + "\n" +
		string(SampleLine(1999999, NodeSample{T: 1, Iter: 1})) + "\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadRun(strings.NewReader(forged))
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
		t.Fatalf("a %d-byte export allocated %d bytes", len(forged), b)
	}
	if err == nil {
		t.Fatal("want an error for a sample of rank 1999999 in a one-sample export")
	}

	worker := &Run{
		Manifest: Manifest{P: 15},
		Samples:  make([][]NodeSample, 15),
		Faults:   make([]uint64, 15),
	}
	worker.Samples[14] = []NodeSample{{T: 1, Iter: 1}}
	var buf bytes.Buffer
	if err := worker.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadRun(&buf)
	if err != nil || len(r.Samples) != 15 || len(r.Samples[14]) != 1 {
		t.Fatalf("one sample of the last of 15 ranks: %v, %+v", err, r)
	}
}

func TestManifestFillHost(t *testing.T) {
	m := Manifest{CreatedAt: "pinned", GoVersion: "gox", OS: "osx", Arch: "archx", GitRev: "revx"}
	m.FillHost()
	if m.CreatedAt != "pinned" || m.GoVersion != "gox" || m.OS != "osx" || m.Arch != "archx" || m.GitRev != "revx" {
		t.Fatalf("FillHost overwrote pinned fields: %+v", m)
	}
	var m2 Manifest
	m2.FillHost()
	if m2.CreatedAt == "" || m2.GoVersion == "" || m2.OS == "" || m2.Arch == "" {
		t.Fatalf("FillHost left fields empty: %+v", m2)
	}
}

// TestLineKeysReadTheWriterFields: SampleKey and EventTime read back the
// node and t the line encoders wrote, for times in every float format
// encoding/json uses, and refuse lines of another shape.
func TestLineKeysReadTheWriterFields(t *testing.T) {
	for _, tm := range []float64{0, 1, 0.5, 1e-7, 1.5e21, 123456.789, 0.013941223928571419, 1e300} {
		for _, node := range []int{0, 3, 1 << 20} {
			line := SampleLine(node, NodeSample{T: tm, Iter: 7, Residual: 1e-9, Work: 3})
			gotNode, gotT, err := SampleKey(line)
			if err != nil || gotNode != node || gotT != tm {
				t.Fatalf("SampleKey(%s) = %d, %v, %v; want %d, %v", line, gotNode, gotT, err, node, tm)
			}
		}
		line := EventLine(Event{T: tm, Node: -1, Name: "halt", Detail: `a "quoted", detail`})
		if got, err := EventTime(line); err != nil || got != tm {
			t.Fatalf("EventTime(%s) = %v, %v; want %v", line, got, err, tm)
		}
		if typ, ok := LineType(line); !ok || string(typ) != "event" {
			t.Fatalf("LineType(%s) = %q, %v", line, typ, ok)
		}
	}
	for _, line := range []string{
		`{"type":"sample","node":-1,"t":1,"iter":0}`,
		`{"type":"sample","node":01,"t":1,"iter":0}`,
		`{"type":"sample","node":1.0,"t":1,"iter":0}`,
		`{"type":"sample","node":1,"iter":0,"t":1}`,
		`{"type":"sample","t":1,"node":1,"iter":0}`,
		`{"type":"sample","node":1,"t":1}`,
		`{"type":"sample","node":1,"t":1e999,"iter":0}`,
		`{"type":"sample","node":1,"t":.5,"iter":0}`,
		`{"type":"sample","node":1,"t":1.,"iter":0}`,
		`{"type":"sample","node":1,"t":1e,"iter":0}`,
		`{"type":"sample","node":1,"t":"1","iter":0}`,
		`{"type":"sample","node":1,"t":1,"iter":0`,
		`{"type":"sample", "node":1,"t":1,"iter":0}`,
		`{"node":1,"type":"sample","t":1,"iter":0}`,
	} {
		if _, _, err := SampleKey([]byte(line)); err == nil {
			t.Errorf("SampleKey accepted %s", line)
		}
	}
	for _, line := range []string{
		`{"type":"event","node":0,"t":1,"name":"x"}`,
		`{"type":"event","t":-,"node":0,"name":"x"}`,
		`{"type":"event","t":1}`,
		`{"type":"event","t":1,"node":0,"name":"x"`,
	} {
		if _, err := EventTime([]byte(line)); err == nil {
			t.Errorf("EventTime accepted %s", line)
		}
	}
	if _, ok := LineType([]byte(`{"x":1,"type":"sample"}`)); ok {
		t.Error("LineType read a type that is not the first field")
	}
}
