package metrics

import (
	"bytes"
	"reflect"
	"testing"
)

// workerRun builds a minimal worker export: the given ranks sampled, some
// events, a Dist identity.
func workerRun(runID string, worker int, ranks []int, events []Event) *Run {
	r := &Run{
		Manifest: Manifest{
			Name: "dist-test",
			P:    2,
			Dist: &DistManifest{RunID: runID, Workers: 2, Role: "worker", Worker: worker, Ranks: ranks},
		},
		Events:    events,
		Delivered: 10,
		Control:   3,
		QueueMax:  float64(worker + 1),
	}
	for _, rank := range ranks {
		for len(r.Samples) <= rank {
			r.Samples = append(r.Samples, nil)
		}
		r.Samples[rank] = []NodeSample{{T: 0.5, Iter: 1, Residual: 0.1, Count: 4}}
	}
	return r
}

// TestMergeRunsDuplicateRank: a rank two workers both sampled is refused on
// the second merge, and nothing of the refused run is merged.
func TestMergeRunsDuplicateRank(t *testing.T) {
	a := workerRun("r1", 0, []int{0, 1}, []Event{{T: 0.1, Node: 0, Name: "conv"}})
	b := workerRun("r1", 1, []int{1}, []Event{{T: 0.2, Node: 1, Name: "conv"}}) // rank 1 sampled twice
	s := &Sink{}
	s.Start(2)
	if err := s.Merge(a); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	if err := s.Merge(b); err == nil {
		t.Fatal("duplicate rank accepted")
	}
	after := s.Snapshot()
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused merge changed the sink:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestMergeRunsInterleavedEvents: two workers' runs merged one after the
// other come out of Sink.Events interleaved by timestamp, equal timestamps
// in emitter order (worker 0's node before worker 1's), with the runtime
// aggregates and the latency histogram's counts summed.
func TestMergeRunsInterleavedEvents(t *testing.T) {
	a := workerRun("r1", 0, []int{0}, []Event{
		{T: 0.1, Node: 0, Name: "conv"},
		{T: 0.5, Node: 0, Name: "relapse"},
		{T: 0.9, Node: 0, Name: "conv"},
	})
	b := workerRun("r1", 1, []int{1}, []Event{
		{T: 0.2, Node: 1, Name: "conv"},
		{T: 0.5, Node: 1, Name: "conv"},
		{T: 0.8, Node: 1, Name: "relapse"},
	})
	var ha, hb Histogram
	ha.Observe(1e-3)
	ha.Observe(1e-3)
	hb.Observe(1e-3)
	hb.Observe(5e-2)
	a.Latency, b.Latency = ha.Snapshot(), hb.Snapshot()
	s := &Sink{}
	s.Start(2)
	for _, r := range []*Run{a, b} {
		if err := s.Merge(r); err != nil {
			t.Fatal(err)
		}
	}
	events, _ := s.Events()
	var got []float64
	var nodes []int
	for _, ev := range events {
		got = append(got, ev.T)
		nodes = append(nodes, ev.Node)
	}
	want := []float64{0.1, 0.2, 0.5, 0.5, 0.8, 0.9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event times = %v, want %v", got, want)
	}
	if nodes[2] != 0 || nodes[3] != 1 {
		t.Fatalf("tie order = %v, want worker 0 before worker 1", nodes)
	}
	if s.Delivered.Value() != 20 || s.Control.Value() != 6 {
		t.Fatalf("aggregates = %d/%d, want 20/6", s.Delivered.Value(), s.Control.Value())
	}
	if s.QueueMax.Value() != 2 {
		t.Fatalf("QueueMax = %g, want max(1,2)=2", s.QueueMax.Value())
	}
	lat := s.Latency.Snapshot()
	if lat.Count != 4 {
		t.Fatalf("latency count = %d, want 4", lat.Count)
	}
	for i, n := range lat.Counts {
		var wa, wb uint64
		if i < len(a.Latency.Counts) {
			wa = a.Latency.Counts[i]
		}
		if i < len(b.Latency.Counts) {
			wb = b.Latency.Counts[i]
		}
		if n != wa+wb {
			t.Fatalf("latency bucket %d = %d, want %d+%d", i, n, wa, wb)
		}
	}
}

// TestSinkMergeTakesInWorkerRuns: two workers' exports, read back and taken
// in by a fresh sink one after the other, read like one run — samples with the fault counts
// their own sinks sealed (FinishRun does not re-resolve them), events in
// time order, the aggregates summed — and the sink refuses a run with more
// ranks than it holds.
func TestSinkMergeTakesInWorkerRuns(t *testing.T) {
	var runs []*Run
	for _, r := range []*Run{
		workerRun("r1", 0, []int{0}, []Event{{T: 0.3, Node: 0, Name: "conv"}}),
		workerRun("r1", 1, []int{1}, []Event{{T: 0.1, Node: 1, Name: "conv"}}),
	} {
		r.Samples[len(r.Samples)-1][0].Faults = 4
		r.Faults = make([]uint64, len(r.Samples))
		r.Faults[len(r.Samples)-1] = 5
		var buf bytes.Buffer
		if err := r.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadRun(&buf)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, back)
	}
	s := &Sink{}
	s.Start(2)
	for _, r := range runs {
		if err := s.Merge(r); err != nil {
			t.Fatal(err)
		}
	}
	s.FinishRun(Outcome{Converged: true})
	got := s.Snapshot()
	if len(got.Samples) != 2 || len(got.Events) != 2 || got.Events[0].T != 0.1 {
		t.Fatalf("merged: %d ranks, events %+v", len(got.Samples), got.Events)
	}
	for rank, row := range got.Samples {
		if len(row) != 1 || row[0].Faults != 4 || got.Faults[rank] != 5 {
			t.Fatalf("rank %d: samples %+v, runtime faults %d", rank, row, got.Faults[rank])
		}
	}
	if got.Delivered != 20 || got.Control != 6 || got.QueueMax != 2 {
		t.Fatalf("aggregates %d/%d/%g, want 20/6/2", got.Delivered, got.Control, got.QueueMax)
	}

	small := &Sink{}
	small.Start(1)
	if err := small.Merge(runs[1]); err == nil {
		t.Fatal("a 2-rank run merged into a 1-rank sink")
	}
	if n := len(small.Samples(0)); n != 0 {
		t.Fatalf("a refused merge left %d samples", n)
	}
}
