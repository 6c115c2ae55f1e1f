package metrics

import (
	"os"
	"path/filepath"
	"strings"
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

func writeExport(t *testing.T, dir, name string, r *Run) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMergeRunsEmptySet(t *testing.T) {
	if _, err := MergeRuns(nil); err == nil {
		t.Fatal("MergeRuns(nil) succeeded")
	}
	if _, err := FederateRuns(nil); err == nil {
		t.Fatal("FederateRuns(nil) succeeded")
	}
}

func TestMergeRunsDuplicateRank(t *testing.T) {
	a := workerRun("r1", 0, []int{0, 1}, nil)
	b := workerRun("r1", 1, []int{1}, nil) // rank 1 sampled twice
	if _, err := MergeRuns([]*Run{a, b}); err == nil {
		t.Fatal("duplicate rank accepted")
	}
}

// TestMergeRunsInterleavedEvents: events from different workers interleave
// by timestamp, and equal-timestamp events keep worker order (stable).
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
	merged, err := MergeRuns([]*Run{a, b})
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	var nodes []int
	for _, ev := range merged.Events {
		got = append(got, ev.T)
		nodes = append(nodes, ev.Node)
	}
	want := []float64{0.1, 0.2, 0.5, 0.5, 0.8, 0.9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event times = %v, want %v", got, want)
		}
	}
	// tie at T=0.5: worker 0's event first (stable input order)
	if nodes[2] != 0 || nodes[3] != 1 {
		t.Fatalf("tie order = %v, want worker 0 before worker 1", nodes)
	}
	if merged.Delivered != 20 || merged.Control != 6 {
		t.Fatalf("aggregates = %d/%d, want 20/6", merged.Delivered, merged.Control)
	}
	if merged.QueueMax != 2 {
		t.Fatalf("QueueMax = %g, want max(1,2)=2", merged.QueueMax)
	}
	if merged.Manifest.Dist != nil {
		t.Fatal("federated manifest kept a worker Dist section")
	}
}

func TestFederateRunsHappyPath(t *testing.T) {
	dir := t.TempDir()
	p0 := writeExport(t, dir, "w0.jsonl", workerRun("r1", 0, []int{0}, []Event{{T: 0.3, Node: 0, Name: "conv"}}))
	p1 := writeExport(t, dir, "w1.jsonl", workerRun("r1", 1, []int{1}, []Event{{T: 0.1, Node: 1, Name: "conv"}}))
	merged, err := FederateRuns([]string{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Samples) != 2 || len(merged.Events) != 2 {
		t.Fatalf("merged: %d ranks, %d events", len(merged.Samples), len(merged.Events))
	}
	if merged.Events[0].T != 0.1 {
		t.Fatalf("events not time-ordered: %+v", merged.Events)
	}
}

func TestFederateRunsMissingSidecar(t *testing.T) {
	dir := t.TempDir()
	p0 := writeExport(t, dir, "w0.jsonl", workerRun("r1", 0, []int{0}, nil))
	_, err := FederateRuns([]string{p0, filepath.Join(dir, "w1.jsonl")})
	if err == nil {
		t.Fatal("missing sidecar accepted")
	}
}

// TestFederateRunsNoManifestLine: a sidecar whose manifest line is absent
// (truncated write) fails cleanly.
func TestFederateRunsNoManifestLine(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "w0.jsonl")
	os.WriteFile(bad, []byte(`{"type":"sample","node":0,"t":1}`+"\n"), 0o644)
	if _, err := FederateRuns([]string{bad}); err == nil || !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("truncated sidecar: err = %v", err)
	}
}

func TestFederateRunsNonWorkerExport(t *testing.T) {
	dir := t.TempDir()
	r := workerRun("r1", 0, []int{0}, nil)
	r.Manifest.Dist = nil // a plain single-process export
	p := writeExport(t, dir, "solo.jsonl", r)
	if _, err := FederateRuns([]string{p}); err == nil {
		t.Fatal("non-worker export accepted")
	}
}

func TestFederateRunsMixedRunIDs(t *testing.T) {
	dir := t.TempDir()
	p0 := writeExport(t, dir, "w0.jsonl", workerRun("r1", 0, []int{0}, nil))
	p1 := writeExport(t, dir, "w1.jsonl", workerRun("r2", 1, []int{1}, nil))
	if _, err := FederateRuns([]string{p0, p1}); err == nil {
		t.Fatal("sidecars from different runs federated")
	}
}

func TestFederateRunsDuplicateWorker(t *testing.T) {
	dir := t.TempDir()
	p0 := writeExport(t, dir, "w0.jsonl", workerRun("r1", 0, []int{0}, nil))
	p0again := writeExport(t, dir, "w0-stale.jsonl", workerRun("r1", 0, []int{1}, nil))
	if _, err := FederateRuns([]string{p0, p0again}); err == nil {
		t.Fatal("duplicate worker sidecars federated")
	}
}
