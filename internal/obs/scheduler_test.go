package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"aiac/internal/metrics"
	"aiac/internal/report"
)

// newIdleScheduler builds a scheduler with no worker pool, so queues can be
// inspected deterministically.
func newIdleScheduler(reg *Registry, cfg SchedulerConfig) *Scheduler {
	s := &Scheduler{
		reg:     reg,
		cfg:     cfg,
		queues:  map[string][]*job{},
		queued:  map[string]int{},
		running: map[string]int{},
		jobs:    map[string]*job{},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func quickSpec(tenant string) RunSpec {
	return RunSpec{Tenant: tenant, N: 16, T: 0.2, Tol: 1e-4}
}

func waitState(t *testing.T, reg *Registry, id string, want RunState) RunRecord {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec, ok := reg.Get(id)
		if ok && rec.State == want {
			return rec
		}
		if ok && rec.State.Terminal() && rec.State != want {
			t.Fatalf("run %s reached %s (error %q), want %s", id, rec.State, rec.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %s", id, want)
	return RunRecord{}
}

// TestFairDequeueRoundRobin: with every tenant's queue loaded, the cursor
// hands out one run per tenant per lap, regardless of queue depths.
func TestFairDequeueRoundRobin(t *testing.T) {
	reg, _ := OpenRegistry(t.TempDir())
	s := newIdleScheduler(reg, SchedulerConfig{})
	// heavy tenant floods first, light tenant submits one run
	var want []string
	for i := 0; i < 5; i++ {
		id, err := s.Submit(quickSpec("heavy"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, "heavy:"+id)
	}
	lightID, err := s.Submit(quickSpec("light"))
	if err != nil {
		t.Fatal(err)
	}

	var order []string
	s.mu.Lock()
	for {
		j := s.dequeueLocked()
		if j == nil {
			break
		}
		order = append(order, j.tenant)
	}
	s.mu.Unlock()
	// 6 jobs: round-robin gives heavy, light, heavy, heavy, heavy, heavy —
	// the light tenant waits behind ONE heavy run, not five.
	if len(order) != 6 {
		t.Fatalf("dequeued %d jobs, want 6", len(order))
	}
	if order[1] != "light" {
		t.Fatalf("light tenant dequeued at position %v, want 1 (order %v)", order, lightID)
	}
}

// TestDequeueSkipsSaturatedTenant: a tenant at its running cap is skipped;
// other tenants drain.
func TestDequeueSkipsSaturatedTenant(t *testing.T) {
	reg, _ := OpenRegistry(t.TempDir())
	s := newIdleScheduler(reg, SchedulerConfig{MaxRunningPerTenant: 1})
	if _, err := s.Submit(quickSpec("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(quickSpec("b")); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.running["a"] = 1 // tenant a is saturated
	j1 := s.dequeueLocked()
	j2 := s.dequeueLocked()
	s.mu.Unlock()
	if j1 == nil || j1.tenant != "b" {
		t.Fatalf("dequeued %+v, want tenant b", j1)
	}
	if j2 != nil {
		t.Fatalf("saturated tenant's job handed out: %+v", j2)
	}
}

// TestQueueQuotaRejects: MaxQueuedPerTenant bounds a tenant's queue; other
// tenants are unaffected, and capacity frees when a queued run is canceled.
func TestQueueQuotaRejects(t *testing.T) {
	reg, _ := OpenRegistry(t.TempDir())
	s := newIdleScheduler(reg, SchedulerConfig{MaxQueuedPerTenant: 2})
	var ids []string
	for i := 0; i < 2; i++ {
		id, err := s.Submit(quickSpec("a"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := s.Submit(quickSpec("a")); err == nil {
		t.Fatal("third submission accepted over quota")
	} else if _, ok := err.(ErrQueueFull); !ok {
		t.Fatalf("error = %v, want ErrQueueFull", err)
	}
	if _, err := s.Submit(quickSpec("b")); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	if !s.Cancel(ids[0]) {
		t.Fatal("cancel of queued run failed")
	}
	if _, err := s.Submit(quickSpec("a")); err != nil {
		t.Fatalf("submission after cancel still rejected: %v", err)
	}
}

// TestCancelQueuedRun: a queued run cancels immediately with a durable
// canceled record and no artifacts.
func TestCancelQueuedRun(t *testing.T) {
	reg, _ := OpenRegistry(t.TempDir())
	s := newIdleScheduler(reg, SchedulerConfig{})
	id, err := s.Submit(quickSpec("t"))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(id) {
		t.Fatal("cancel failed")
	}
	rec, ok := reg.Get(id)
	if !ok || rec.State != StateCanceled || rec.FinishedAt == "" {
		t.Fatalf("record after cancel = %+v", rec)
	}
	if s.Cancel(id) {
		t.Fatal("second cancel of a terminal run succeeded")
	}
	if _, err := os.Stat(filepath.Join(reg.Dir(id), "metrics.jsonl")); err == nil {
		t.Fatal("canceled-before-start run has telemetry artifacts")
	}
}

// TestSchedulerRunsToDone: end to end through the real pool — submit, run,
// artifacts on disk, outcome in the record, live stream sealed.
func TestSchedulerRunsToDone(t *testing.T) {
	reg, _ := OpenRegistry(t.TempDir())
	s := NewScheduler(reg, SchedulerConfig{Workers: 2})
	defer s.Close()
	id, err := s.Submit(quickSpec("t"))
	if err != nil {
		t.Fatal(err)
	}
	ls := s.Stream(id)
	if ls == nil {
		t.Fatal("no live stream for a queued run")
	}
	rec := waitState(t, reg, id, StateDone)
	if rec.Outcome == nil || !rec.Outcome.Converged {
		t.Fatalf("outcome = %+v, want converged", rec.Outcome)
	}
	if rec.StartedAt == "" || rec.FinishedAt == "" {
		t.Fatalf("timestamps missing: %+v", rec)
	}
	for _, name := range []string{"manifest.json", "metrics.jsonl"} {
		if _, err := os.Stat(filepath.Join(reg.Dir(id), name)); err != nil {
			t.Fatalf("artifact %s: %v", name, err)
		}
	}

	// The sealed live stream accumulates back into the stored run.
	deadline := time.Now().Add(5 * time.Second)
	for {
		frames, closed := ls.snapshot(0)
		if closed {
			got, phase, err := report.Accumulate(frames)
			if err != nil {
				t.Fatal(err)
			}
			if phase != "done" {
				t.Fatalf("live stream terminal phase = %q", phase)
			}
			stored, err := reg.LoadRun(id)
			if err != nil {
				t.Fatal(err)
			}
			if got.Manifest.Outcome == nil || got.Manifest.Outcome.Time != stored.Manifest.Outcome.Time {
				t.Fatalf("live accumulated outcome %+v != stored %+v",
					got.Manifest.Outcome, stored.Manifest.Outcome)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live stream never sealed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSchedulerTraceArtifact: a traced spec leaves trace.csv beside the
// other artifacts.
func TestSchedulerTraceArtifact(t *testing.T) {
	reg, _ := OpenRegistry(t.TempDir())
	s := NewScheduler(reg, SchedulerConfig{Workers: 1})
	defer s.Close()
	spec := quickSpec("t")
	spec.Trace = true
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, reg, id, StateDone)
	fi, err := os.Stat(filepath.Join(reg.Dir(id), "trace.csv"))
	if err != nil || fi.Size() == 0 {
		t.Fatalf("trace.csv: %v (size %v)", err, fi)
	}
}

// TestCancelRunningRun: a slow rtime solve is canceled mid-flight and lands
// in state canceled with sealed partial telemetry.
func TestCancelRunningRun(t *testing.T) {
	reg, _ := OpenRegistry(t.TempDir())
	s := NewScheduler(reg, SchedulerConfig{Workers: 1})
	defer s.Close()
	spec := RunSpec{Tenant: "t", N: 16, T: 1, Tol: 1e-300, Backend: "rtime", Speedup: 1}
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, reg, id, StateRunning)
	if !s.Cancel(id) {
		t.Fatal("cancel of running run refused")
	}
	rec := waitState(t, reg, id, StateCanceled)
	if rec.Outcome == nil || !rec.Outcome.Canceled {
		t.Fatalf("outcome = %+v, want canceled", rec.Outcome)
	}
	run, err := reg.LoadRun(id)
	if err != nil {
		t.Fatalf("canceled run has no telemetry: %v", err)
	}
	if run.Manifest.Outcome == nil || !run.Manifest.Outcome.Canceled {
		t.Fatalf("stored outcome = %+v", run.Manifest.Outcome)
	}
}

// TestSchedulerManyQueuedFIFOWithinTenant: a tenant's own runs execute in
// submission order even when fanned over several workers' dequeues.
func TestSchedulerManyQueuedFIFOWithinTenant(t *testing.T) {
	reg, _ := OpenRegistry(t.TempDir())
	s := newIdleScheduler(reg, SchedulerConfig{})
	var ids []string
	for i := 0; i < 8; i++ {
		id, err := s.Submit(quickSpec("t"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.mu.Lock()
	for i := 0; ; i++ {
		j := s.dequeueLocked()
		if j == nil {
			break
		}
		if j.id != ids[i] {
			s.mu.Unlock()
			t.Fatalf("dequeue %d = %s, want %s", i, j.id, ids[i])
		}
	}
	s.mu.Unlock()
}

// badSpecs is what a front door must refuse, with a piece of the reason it
// must give. The last six are what only the engine or a constructor knows to
// refuse: three would panic in a problem or cluster constructor, three would
// fail engine.Config.Validate when a worker picked them up.
var badSpecs = []struct {
	spec RunSpec
	msg  string
}{
	{RunSpec{Problem: "no-such-problem"}, "unknown problem"},
	{RunSpec{Mode: "warp"}, "unknown mode"},
	{RunSpec{Cluster: "ring-of-fire"}, "unknown cluster"},
	{RunSpec{Backend: "dist"}, "worker processes"},
	{RunSpec{LB: true, LBEstimator: "vibes"}, "unknown estimator"},
	{RunSpec{Faults: "drop=oops"}, "drop"},
	{RunSpec{N: -5}, "brusselator: N = -5, need >= 1"},
	{RunSpec{P: -3}, "p = -3, need >= 1"},
	{RunSpec{Dt: 5}, "brusselator: Dt = 5, need in (0, T]"},
	{RunSpec{P: 64, N: 16}, "engine: 16 components over 64 nodes gives < halo"},
	{RunSpec{Tol: -1}, "engine: Tol = -1, need > 0"},
	{RunSpec{LB: true, Mode: "sisc"}, "engine: load balancing requires an AIAC mode"},
}

// TestSubmitBadSpec: validation errors surface at submission, not at run
// time.
func TestSubmitBadSpec(t *testing.T) {
	reg, _ := OpenRegistry(t.TempDir())
	s := newIdleScheduler(reg, SchedulerConfig{})
	for _, bad := range badSpecs {
		_, err := s.Submit(bad.spec)
		if err == nil {
			t.Fatalf("spec %+v accepted", bad.spec)
		}
		if !strings.Contains(err.Error(), bad.msg) {
			t.Errorf("spec %+v: error %q does not say %q", bad.spec, err, bad.msg)
		}
	}
	if n := len(reg.List("", "")); n != 0 {
		t.Fatalf("%d records written for rejected specs", n)
	}
}

// TestLiveStreamReadWhileAppending: a reader encodes what it reads while the
// solver side keeps appending; it sees every appended frame once, in order,
// encoded as its type's line.
func TestLiveStreamReadWhileAppending(t *testing.T) {
	ls := newLiveStream()
	const n = 3000
	want := func(i int) report.Frame {
		switch i % 3 {
		case 0:
			return report.SampleFrame(i%4, metrics.NodeSample{T: float64(i), Iter: i})
		case 1:
			return report.EventFrame(metrics.Event{T: float64(i), Node: i % 4, Name: "conv"})
		}
		return report.PhaseFrame(metrics.PhaseRunning)
	}
	go func() {
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				ls.appendSample(i%4, metrics.NodeSample{T: float64(i), Iter: i})
			case 1:
				ls.appendEvent(metrics.Event{T: float64(i), Node: i % 4, Name: "conv"})
			default:
				ls.append(report.PhaseFrame(metrics.PhaseRunning))
			}
		}
		ls.close()
	}()
	var got []report.Frame
	for closed := false; !closed; {
		var frames []report.Frame
		frames, closed = ls.snapshot(len(got))
		got = append(got, frames...)
	}
	if len(got) != n {
		t.Fatalf("read %d frames, want %d", len(got), n)
	}
	for i, f := range got {
		if w := want(i); f.Event != w.Event || !bytes.Equal(f.Data, w.Data) {
			t.Fatalf("frame %d = %s %s, want %s %s", i, f.Event, f.Data, w.Event, w.Data)
		}
	}
}
