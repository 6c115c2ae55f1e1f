package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"aiac/internal/dtime"
	"aiac/internal/fault"
	"aiac/internal/report"
	"aiac/internal/trace"
)

// distTraceRun executes a traced dist solve: the coordinator's cfg carries
// the caller's log (federated in place by RunDist), every goroutine worker
// gets its own private log exactly like a real worker process would. The
// last return holds those worker logs, by worker index.
func distTraceRun(t *testing.T, cfg Config, workers int) (*Result, *dtime.RunInfo, *trace.Log, []*trace.Log) {
	t.Helper()
	tlog := &trace.Log{}
	cfg.Trace = tlog
	wlogs := make([]*trace.Log, workers)
	for i := range wlogs {
		wlogs[i] = &trace.Log{}
	}
	opts := DistOptions{
		Workers: workers,
		RunRoot: t.TempDir(),
		Speedup: 200,
		Spawn: dtime.GoroutineSpawner(func(w dtime.WorkerEnv) error {
			wcfg := cfg
			wcfg.Trace = wlogs[w.Worker]
			return RunDistWorker(wcfg, w, DistWorkerOptions{Speedup: 200})
		}),
		HeartbeatTimeout: 10 * time.Second,
		Wall:             2 * time.Minute,
	}
	res, info, err := RunDist(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, info, tlog, wlogs
}

// TestDistTraceFederatedEndToEnd is the tentpole acceptance test: a traced
// dist solve yields one federated causal stream — worker compute spans,
// cross-process Wire spans, coordinator supervision — whose critical path
// attributes ≥95% of the coordinator-observed makespan with nonzero wire
// blame, exported to CSV like a single-process log.
func TestDistTraceFederatedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 4)
	// Synchronous iterations: every sweep waits on its neighbors' halos, so
	// cross-process delivery latency is load-bearing and must surface as
	// wire blame. (Under AIAC the same wire hides behind computation — zero
	// wire blame there is the asynchronism claim, not a tracing gap.)
	cfg.Mode = SISC
	cfg.MaxTime = 5000
	cfg.MaxIter = 500000
	res, _, tlog, _ := distTraceRun(t, cfg, 2)
	if !res.Converged {
		t.Fatalf("did not converge (residual %g)", res.MaxResidual)
	}

	evs := tlog.Events()
	if len(evs) == 0 {
		t.Fatal("federated log is empty")
	}
	var wires, coordEvs, relays int
	procs := map[int]bool{}
	for _, ev := range evs {
		procs[ev.Proc] = true
		if ev.Kind == trace.Wire {
			wires++
			if ev.T1 < ev.T0 {
				t.Fatalf("wire span runs backward: %+v", ev)
			}
		}
		if ev.Proc == 2 { // the coordinator's track
			coordEvs++
			if strings.HasPrefix(ev.Note, "relay to ") {
				relays++
			}
		}
		if ev.Note == trace.WireDeliverNote {
			t.Fatalf("unconsumed delivery record: %+v", ev)
		}
	}
	if !procs[0] || !procs[1] || !procs[2] {
		t.Fatalf("missing process tracks: %v", procs)
	}
	if wires == 0 {
		t.Fatal("no Wire spans in a 2-process run")
	}
	if relays == 0 || coordEvs == 0 {
		t.Fatalf("coordinator wire log empty (events %d, relays %d)", coordEvs, relays)
	}

	// Critical path over the unchanged walk: gapless attribution spanning
	// ≥95% of the makespan (halt is the last anchor, the global clock's
	// zero is the welcome broadcast), with real wire-transit blame.
	cp := trace.Analyze(evs)
	if cp == nil || len(cp.Segments) == 0 {
		t.Fatal("no critical path")
	}
	if cov := cp.Coverage(); cov < 0.999 {
		t.Fatalf("path has gaps: coverage %g", cov)
	}
	if cp.Start > 0.05*cp.End {
		t.Fatalf("path attributes only [%g, %g] of the [0, %g] makespan", cp.Start, cp.End, cp.End)
	}
	if cp.ByKind[trace.SegWire] <= 0 {
		t.Fatalf("no wire blame: %v", cp.ByKind)
	}
	rep := report.CriticalPath(cp, 10)
	if !strings.Contains(rep, "wire") {
		t.Fatalf("report lacks the wire category:\n%s", rep)
	}

	// Export: the federated log's CSV reads back event for event.
	var csv bytes.Buffer
	if err := tlog.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(evs) {
		t.Fatalf("the CSV export holds %d events, the log %d", len(back), len(evs))
	}
}

// TestDistTraceDeterministicExports is the golden determinism pin on real
// dist data: re-federating the run's per-process traces — each worker's own
// log placed on the clock origin RunInfo reports for it — in either worker
// order must reproduce the Chrome JSON, the CSV and the critical-path report
// byte for byte. (Wall-clock timestamps differ across live runs; the pinned
// property is that the federation→export pipeline is a pure function of the
// captured inputs.)
func TestDistTraceDeterministicExports(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 4)
	cfg.MaxTime = 5000
	cfg.MaxIter = 500000
	_, info, _, wlogs := distTraceRun(t, cfg, 2)
	for i, w := range info.Workers {
		if w.ClockStart == 0 || wlogs[i].Len() == 0 {
			t.Fatalf("worker %d: clock origin %d, %d events", i, w.ClockStart, wlogs[i].Len())
		}
	}

	render := func(order []int) (string, string, string) {
		var workers []trace.ProcTrace
		for _, i := range order {
			workers = append(workers, trace.ProcTrace{
				Proc: i, RunID: info.RunID, Ranks: info.Workers[i].Ranks,
				Start: info.Workers[i].ClockStart, Speedup: 200,
				Dropped: wlogs[i].Dropped(), Events: wlogs[i].Events(),
			})
		}
		fed, err := trace.Federate(workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		var csv, chrome bytes.Buffer
		if err := fed.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteChrome(fed, &chrome); err != nil {
			t.Fatal(err)
		}
		rep := report.CriticalPath(trace.Analyze(fed.Events()), 10)
		return csv.String(), chrome.String(), rep
	}
	csv1, chrome1, rep1 := render([]int{0, 1})
	csv2, chrome2, rep2 := render([]int{1, 0})
	csv3, chrome3, rep3 := render([]int{0, 1})
	if csv1 != csv2 || csv1 != csv3 {
		t.Error("federated CSV differs across worker orderings/reruns")
	}
	if chrome1 != chrome2 || chrome1 != chrome3 {
		t.Error("federated Chrome JSON differs across worker orderings/reruns")
	}
	if rep1 != rep2 || rep1 != rep3 {
		t.Errorf("critical-path report differs across worker orderings/reruns:\n%s\nvs\n%s", rep1, rep2)
	}
	if !strings.Contains(chrome1, `"proc 0"`) || !strings.Contains(chrome1, `"proc 1"`) {
		t.Fatalf("multi-process Chrome export lacks process tracks")
	}
}

// TestDistTraceUntracedWorkerFails: a traced coordinator cannot federate a
// run one of whose workers traced nothing; it fails naming that worker
// instead of returning a trace with a hole in it.
func TestDistTraceUntracedWorkerFails(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 4)
	cfg.MaxTime = 5000
	cfg.MaxIter = 500000
	cfg.Trace = &trace.Log{}
	for untraced := 0; untraced < 2; untraced++ {
		opts := DistOptions{
			Workers: 2,
			RunRoot: t.TempDir(),
			Speedup: 200,
			Spawn: dtime.GoroutineSpawner(func(w dtime.WorkerEnv) error {
				wcfg := cfg
				wcfg.Trace = &trace.Log{}
				if w.Worker == untraced {
					wcfg.Trace = nil
				}
				return RunDistWorker(wcfg, w, DistWorkerOptions{Speedup: 200})
			}),
			HeartbeatTimeout: 10 * time.Second,
			Wall:             2 * time.Minute,
		}
		want := fmt.Sprintf("engine: worker %d sent no trace to a traced run", untraced)
		if _, _, err := RunDist(cfg, opts); err == nil || err.Error() != want {
			t.Fatalf("RunDist with worker %d untraced = %v, want %q", untraced, err, want)
		}
	}
}

// TestDistTraceFaultMarks: wire-fault injection events surface in the
// federated stream as link-attributed marks.
func TestDistTraceFaultMarks(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	prob, _ := smallBruss()
	cfg := lbConfig(prob)
	cfg.Faults = &fault.Plan{Seed: 12, Msg: fault.Rates{Drop: 0.10, Dup: 0.05}}
	cfg.MaxTime = 5000
	cfg.MaxIter = 500000
	tlog := &trace.Log{}
	cfg.Trace = tlog
	opts := DistOptions{
		Workers: 2,
		RunRoot: t.TempDir(),
		Speedup: 200,
		Spawn: dtime.GoroutineSpawner(func(w dtime.WorkerEnv) error {
			wcfg := cfg
			wcfg.Trace = &trace.Log{}
			return RunDistWorker(wcfg, w, DistWorkerOptions{Speedup: 200})
		}),
		HeartbeatTimeout: 10 * time.Second,
		Wall:             2 * time.Minute,
	}
	res, _, err := RunDist(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res.FaultStats)
	}
	if res.FaultStats.Dropped == 0 {
		t.Fatalf("plan injected nothing: %+v", res.FaultStats)
	}
	marks := 0
	for _, ev := range tlog.Events() {
		if ev.Kind == trace.Mark && strings.HasPrefix(ev.Note, "wire-fault ") {
			marks++
		}
	}
	if marks == 0 {
		t.Fatal("no wire-fault marks in the federated stream")
	}
}
