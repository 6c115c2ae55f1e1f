package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"aiac/internal/brusselator"
	"aiac/internal/detect"
	"aiac/internal/dtime"
	"aiac/internal/fault"
	"aiac/internal/grid"
	"aiac/internal/loadbalance"
	"aiac/internal/metrics"
	"aiac/internal/rtime"
	"aiac/internal/runenv"
)

// distRun executes cfg over the given number of in-process loopback workers
// (goroutines joined over real TCP through the coordinator relay). A worker
// is a process of its own in production, so when cfg has a sink each worker
// gets a fresh one.
func distRun(t *testing.T, cfg Config, workers int, wopts DistWorkerOptions) (*Result, *dtime.RunInfo, error) {
	t.Helper()
	if wopts.Speedup == 0 {
		wopts.Speedup = 200
	}
	opts := DistOptions{
		Workers: workers,
		RunRoot: t.TempDir(),
		Spawn: dtime.GoroutineSpawner(func(w dtime.WorkerEnv) error {
			wcfg := cfg
			if cfg.Metrics != nil {
				wcfg.Metrics = &metrics.Sink{Period: cfg.Metrics.Period}
			}
			return RunDistWorker(wcfg, w, wopts)
		}),
		HeartbeatTimeout: 10 * time.Second,
		Wall:             2 * time.Minute,
	}
	return RunDist(cfg, opts)
}

func TestDistSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 4)
	// At Speedup 200 this is a 25s-wall watchdog: generous against TCP,
	// race-detector and scheduling latency, still a real safety bound.
	cfg.MaxTime = 5000
	cfg.MaxIter = 500000
	res, info, err := distRun(t, cfg, 2, DistWorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge (residual %g, timedOut %v)", res.MaxResidual, res.TimedOut)
	}
	if res.MaxResidual >= cfg.Tol {
		t.Fatalf("max residual %g above tol %g", res.MaxResidual, cfg.Tol)
	}
	if files := regularFiles(t, info.RunDir); len(files) != 0 {
		t.Errorf("the engine wrote files into the run directory: %v", files)
	}
}

// regularFiles lists the regular files under dir: a loopback run's directory
// has none, because the engine writes no files and goroutine workers leave no
// worker.log.
func regularFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDistTelemetryRidesTheOutcome: after a loopback RunDist whose workers
// keep their own sinks, the caller's sink holds the whole run, as after Run:
// every rank's samples, the detector's halt, the coordinator's sealed
// manifest, and per-sample fault counts the workers resolved before shipping
// them. Nothing of it is a file.
func TestDistTelemetryRidesTheOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	prob, _ := smallBruss()
	cfg := lbConfig(prob)
	cfg.Faults = &fault.Plan{Seed: 3, Msg: fault.Rates{Drop: 0.05}}
	cfg.MaxTime = 5000
	cfg.MaxIter = 500000
	cfg.Metrics = &metrics.Sink{}
	res, info, err := distRun(t, cfg, 2, DistWorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run := cfg.Metrics.Snapshot()

	for rank := 0; rank < cfg.P; rank++ {
		if rank >= len(run.Samples) || len(run.Samples[rank]) == 0 {
			t.Fatalf("no samples of rank %d", rank)
		}
	}
	halted := false
	for _, ev := range run.Events {
		halted = halted || ev.Node == -1 && ev.Name == "halt"
	}
	if !halted {
		t.Errorf("no halt event among %d events", len(run.Events))
	}
	m := run.Manifest
	if m.Outcome == nil || m.Outcome.Converged != res.Converged || m.Outcome.TotalIters != res.TotalIters {
		t.Errorf("manifest outcome %+v does not seal the result", m.Outcome)
	}
	if d := m.Dist; d == nil || d.Role != "coordinator" || d.RunID != info.RunID || d.Workers != 2 {
		t.Errorf("manifest dist section %+v, want the coordinator of run %s", d, info.RunID)
	}

	faulted := false
	for rank, row := range run.Samples {
		for _, sm := range row {
			if sm.Faults > run.Faults[rank] {
				t.Fatalf("rank %d: a sample counts %d faults, the run %d", rank, sm.Faults, run.Faults[rank])
			}
		}
		faulted = faulted || row[len(row)-1].Faults > 0
	}
	if !faulted {
		t.Errorf("every sample counts 0 faults; the runtime line counts %v", run.Faults)
	}

	var buf bytes.Buffer
	if err := run.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := metrics.ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, run) {
		t.Error("the merged run does not survive WriteJSONL and ReadRun unchanged")
	}
	if files := regularFiles(t, info.RunDir); len(files) != 0 {
		t.Errorf("the engine wrote files into the run directory: %v", files)
	}
}

// TestDistManifestOutcomeWithoutWorkerSinks: the coordinator's sealed
// manifest records the whole outcome even when no worker collects telemetry
// and there is nothing to merge.
func TestDistManifestOutcomeWithoutWorkerSinks(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	prob, _ := smallBruss()
	cfg := lbConfig(prob)
	cfg.MaxTime = 5000
	cfg.MaxIter = 500000
	sink := &metrics.Sink{}
	cfg.Metrics = sink
	res, _, err := RunDist(cfg, DistOptions{
		Workers: 2,
		RunRoot: t.TempDir(),
		Spawn: dtime.GoroutineSpawner(func(w dtime.WorkerEnv) error {
			wcfg := cfg
			wcfg.Metrics = nil
			return RunDistWorker(wcfg, w, DistWorkerOptions{Speedup: 200})
		}),
		HeartbeatTimeout: 10 * time.Second,
		Wall:             2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sink.Manifest.Outcome
	if out == nil {
		t.Fatal("the coordinator's manifest is not sealed")
	}
	if res.LBTransfers == 0 || res.BoundaryMsgs == 0 {
		t.Fatalf("the run balanced nothing (%d transfers, %d boundary messages): the test shows nothing", res.LBTransfers, res.BoundaryMsgs)
	}
	if out.LBTransfers != res.LBTransfers || out.LBRetries != res.LBRetries || out.LBCompsMoved != res.LBCompsMoved ||
		out.BoundaryMsgs != res.BoundaryMsgs || out.Converged != res.Converged {
		t.Errorf("manifest outcome %+v does not match the result (%d transfers, %d retries, %d moved, %d boundary messages, converged %v)",
			*out, res.LBTransfers, res.LBRetries, res.LBCompsMoved, res.BoundaryMsgs, res.Converged)
	}
	if out.WallSeconds <= 0 {
		t.Errorf("wall_seconds = %g, want > 0", out.WallSeconds)
	}
	if n := len(sink.Samples(0)); n != 0 {
		t.Errorf("sinkless workers, yet rank 0 has %d samples", n)
	}
}

// TestDistEquivalenceGrid is the cross-backend acceptance grid: over
// mode × LB × P the distributed backend must reproduce the in-process
// result — same convergence verdict, max residual within 1e-6 of the
// deterministic vtime reference, iteration counts within real-time slack.
// The wire changes the timing, never the mathematics.
func TestDistEquivalenceGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback grid")
	}
	prob, params := smallBruss()
	ref, _, err := brusselator.Reference(params)
	if err != nil {
		t.Fatal(err)
	}

	type combo struct {
		name    string
		mode    Mode
		lb      bool
		p       int
		workers int
	}
	var combos []combo
	for _, mode := range []Mode{AIAC, SIAC, SISC} {
		for _, p := range []int{2, 4} {
			combos = append(combos, combo{
				name: fmt.Sprintf("%v/p=%d/w=2", mode, p), mode: mode, p: p, workers: 2,
			})
		}
	}
	for _, p := range []int{2, 4} {
		combos = append(combos, combo{
			name: fmt.Sprintf("aiac-lb/p=%d/w=2", p), mode: AIAC, lb: true, p: p, workers: 2,
		})
	}
	// One process per rank: every link crosses the wire.
	combos = append(combos, combo{name: "aiac-lb/p=4/w=4", mode: AIAC, lb: true, p: 4, workers: 4})

	for _, tc := range combos {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(prob, tc.p)
			cfg.Mode = tc.mode
			if tc.lb {
				cfg.Cluster = grid.Heterogeneous(tc.p, 0.25, 7)
				cfg.LB = loadbalance.DefaultPolicy()
				cfg.LB.Period = 5
				cfg.LB.MinKeep = 2
				cfg.LBWarmup = 5
			}
			want, err := Run(cfg) // deterministic vtime reference
			if err != nil {
				t.Fatal(err)
			}

			dcfg := cfg
			dcfg.MaxTime = 5000 // 25s-wall watchdog at Speedup 200; -race headroom
			if tc.mode == AIAC {
				// Async ranks keep iterating while detection messages cross
				// real TCP; on a loaded host that latency maps to model
				// iterations. Give the per-node guard headroom — the verdict
				// and residual are the equivalence invariants, not the count.
				dcfg.MaxIter = 500000
			}
			got, _, err := distRun(t, dcfg, tc.workers, DistWorkerOptions{})
			if err != nil {
				t.Fatal(err)
			}

			if got.Converged != want.Converged {
				t.Fatalf("converged: dist %v, vtime %v", got.Converged, want.Converged)
			}
			if d := math.Abs(got.MaxResidual - want.MaxResidual); d > 1e-6 {
				t.Fatalf("max residual differs by %g: dist %g, vtime %g", d, got.MaxResidual, want.MaxResidual)
			}
			// Iteration slack. Lockstep modes iterate in step with the
			// reference; async modes are bounded below (cannot converge with
			// fewer sweeps) and above by the per-node guard.
			if tc.mode != AIAC && (got.TotalIters < want.TotalIters/3 || got.TotalIters > want.TotalIters*3) {
				t.Fatalf("iterations out of slack: dist %d, vtime %d", got.TotalIters, want.TotalIters)
			}
			if got.TotalIters < want.TotalIters/3 {
				t.Fatalf("dist converged with implausibly few iterations: %d vs vtime %d", got.TotalIters, want.TotalIters)
			}
			if d := maxDiffVsRef(t, got.State, ref); d > 1e-4 {
				t.Fatalf("distributed solution off by %g vs analytic reference", d)
			}
			t.Logf("dist %d iters %.3fs vs vtime %d iters %.3fs", got.TotalIters, got.Time, want.TotalIters, want.Time)
		})
	}
}

// TestDistMatchesRealTimeBackend pins the acceptance criterion verbatim:
// the reduced Table-1 case on 4 ranks, dist vs rtime, residuals within
// 1e-6 of each other and both converged.
func TestDistMatchesRealTimeBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 4)
	cfg.Runner = rtime.Runner{Speedup: 200}
	cfg.MaxTime = 5000
	cfg.MaxIter = 500000
	rt, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Runner = nil
	dist, _, err := distRun(t, cfg, 4, DistWorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Converged || !dist.Converged {
		t.Fatalf("converged: rtime %v, dist %v", rt.Converged, dist.Converged)
	}
	if d := math.Abs(rt.MaxResidual - dist.MaxResidual); d > 1e-6 {
		t.Fatalf("residuals differ by %g: rtime %g, dist %g", d, rt.MaxResidual, dist.MaxResidual)
	}
}

// TestDistWireInvariants ports the PR 2 invariant harness to the wire: the
// at-most-once LB handshake faces real packet loss, duplication and delay
// injected into the TCP stream by the connection wrapper, and the
// ownership-log invariants must hold exactly as they do in process —
// every component owned by exactly one node at all times, every transfer
// resolved at most once (the RecvLedger guarantee), nothing lost.
func TestDistWireInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	prob, params := smallBruss()
	ref, _, err := brusselator.Reference(params)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		plan fault.Plan
	}{
		{"lb-drop", fault.Plan{
			Seed: 11, Msg: fault.Rates{Drop: 0.15, Dup: 0.05, Reorder: 0.05}, Kinds: FaultKindsLB(),
		}},
		{"data-plane", fault.Plan{
			Seed: 12, Msg: fault.Rates{Drop: 0.05, Dup: 0.05, Reorder: 0.05, Spike: 0.02},
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := lbConfig(prob)
			plan := tc.plan
			cfg.Faults = &plan
			ownLog := &fault.OwnershipLog{}
			cfg.OwnershipLog = ownLog
			cfg.MaxTime = 5000
			cfg.MaxIter = 500000

			// Each worker gets its own wrapper + injector: per-link decision
			// streams are per sender, exactly as on separate hosts.
			opts := DistOptions{
				Workers: 2,
				RunRoot: t.TempDir(),
				Spawn: dtime.GoroutineSpawner(func(w dtime.WorkerEnv) error {
					return RunDistWorker(cfg, w, DistWorkerOptions{Speedup: 200})
				}),
				HeartbeatTimeout: 10 * time.Second,
				Wall:             2 * time.Minute,
			}
			res, _, err := RunDist(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("did not converge: residual %g, faults %+v", res.MaxResidual, res.FaultStats)
			}
			if d := maxDiffVsRef(t, res.State, ref); d > faultTol {
				t.Fatalf("solution off by %g (tol %g), faults %+v", d, faultTol, res.FaultStats)
			}
			// Non-vacuity: the wire actually lost messages.
			if res.FaultStats.Dropped == 0 {
				t.Fatalf("no messages dropped: %+v", res.FaultStats)
			}

			// Component conservation and the famine guard at halt.
			total := 0
			for _, c := range res.FinalCount {
				total += c
			}
			if total != prob.Components() {
				t.Fatalf("components not conserved: %v sums to %d, want %d",
					res.FinalCount, total, prob.Components())
			}
			for r, c := range res.FinalCount {
				if c < cfg.LB.MinKeep {
					t.Fatalf("famine guard violated on rank %d: counts %v", r, res.FinalCount)
				}
			}

			// Ownership conservation over the whole run. The per-rank time
			// invariant is a single-clock check — worker clocks start at
			// their own Welcome — but the causal append order of the shared
			// log is global, which is all CheckOwnership needs.
			if err := fault.CheckOwnership(ownLog, prob.Components()); err != nil {
				t.Fatalf("ownership invariant: %v", err)
			}
			t.Logf("time %.3fs retries %d faults %+v", res.Time, res.LBRetries, res.FaultStats)
		})
	}
}

// TestDistWireFaultsWithoutWrapConn: a worker builds its fault wire itself.
// With no WrapConn, a plan restricted to boundary halos on the one directed
// link between the two workers (rank 1 on worker 0 to rank 2 on worker 1)
// can fire only on the wire, since the in-process hook skips remote sends;
// it must still drop messages, and the drops must reach the Result.
func TestDistWireFaultsWithoutWrapConn(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 4)
	cfg.MaxTime = 5000
	cfg.MaxIter = 500000
	cfg.Faults = &fault.Plan{
		Seed: 21, Msg: fault.Rates{Drop: 0.2}, Kinds: FaultKindsBoundary(), Links: [][2]int{{1, 2}},
	}
	res, _, err := distRun(t, cfg, 2, DistWorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: residual %g, faults %+v", res.MaxResidual, res.FaultStats)
	}
	if res.FaultStats.Dropped == 0 {
		t.Fatalf("no halo dropped on the cross-worker link: %+v", res.FaultStats)
	}
}

// TestFaultScopeSameInProcessAndOnWire: the in-process hook and the wire
// wrapper fault the same message kinds — every data-plane kind and every
// detection kind, under the default scope and under a plan that names its
// Kinds.
func TestFaultScopeSameInProcessAndOnWire(t *testing.T) {
	prob, _ := smallBruss()
	detectKinds := []int{
		detect.KindState, detect.KindVerify, detect.KindConfirm, detect.KindHalt, detect.KindAbort,
		detect.KindBarrierArrive, detect.KindBarrierGo, detect.KindToken, detect.KindRingHalt,
	}
	kinds := append(FaultKindsData(), detectKinds...)
	for _, named := range [][]int{nil, {kindLBData, detect.KindHalt, detect.KindToken}} {
		cfg := baseConfig(prob, 4)
		cfg.Faults = &fault.Plan{Seed: 3, Msg: fault.Rates{Drop: 1}, Kinds: named}
		hook := scopedFaultHook(&cfg, cfg.Faults.MustCompile(cfg.P+1))
		wrap, _ := wireFaults(&cfg, 200, nil)
		for _, kind := range kinds {
			want := kind < runenv.ControlKindBase
			if named != nil {
				want = slices.Contains(named, kind)
			}
			inProcess := hook(1, 2, kind, 64, 0, 0).Drop
			var sink countingConn
			env := dtime.Enc{}
			env.U32(1)
			env.U32(2)
			env.U32(uint32(kind))
			env.U32(64)
			env.F64(0)
			env.U64(1)
			env.U32(0)
			if _, err := wrap(&sink).Write(dtime.AppendFrame(nil, dtime.FrameMsg, env.B)); err != nil {
				t.Fatal(err)
			}
			onWire := sink.n == 0
			if inProcess != want || onWire != want {
				t.Errorf("Kinds %v, kind %d: dropped in process %t, on the wire %t, want %t", named, kind, inProcess, onWire, want)
			}
		}
	}
}

// countingConn counts the bytes written to it and takes no other call.
type countingConn struct {
	net.Conn
	n int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// TestDistWorkerFailureTyped covers the engine-level lifecycle contract: a
// worker whose solve dies mid-run surfaces at the coordinator as a typed
// *dtime.WorkerError naming the culprit — promptly, not by hanging until
// the wall timeout.
func TestDistWorkerFailureTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 4)
	cfg.MaxTime = 5000
	opts := DistOptions{
		Workers: 2,
		RunRoot: t.TempDir(),
		Spawn: dtime.GoroutineSpawner(func(w dtime.WorkerEnv) error {
			if w.Worker == 1 {
				return errBoom // dies before dialing in
			}
			return RunDistWorker(cfg, w, DistWorkerOptions{Speedup: 200})
		}),
		HeartbeatTimeout: 5 * time.Second,
		Connect:          30 * time.Second,
		Wall:             2 * time.Minute,
	}
	start := time.Now()
	_, _, err := RunDist(cfg, opts)
	var we *dtime.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("RunDist returned %v, want a *dtime.WorkerError", err)
	}
	if we.Worker != 1 || !errors.Is(err, errBoom) {
		t.Fatalf("wrong attribution: %+v", we)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("failure took %v to surface", d)
	}
}

// TestDistRejectsBadWorkerCount pins option validation.
func TestDistRejectsBadWorkerCount(t *testing.T) {
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 4)
	if _, _, err := RunDist(cfg, DistOptions{Workers: 5}); err == nil {
		t.Fatal("5 workers over 4 ranks was accepted")
	}
}

var errBoom = errors.New("boom")

// TestDistStopCauses: a run stopped by its time limit reads TimedOut and
// nothing else, on dist loopback under either detection protocol and on
// rtime, and a MaxIter abort on dist loopback reads none of the three
// verdict bools. The stop cause comes home from the worker whose world
// stopped, not from a guess at the coordinator. With Tol 1e-300 a run
// converges only once every residual is exactly zero, which takes these 64
// components ~2.4 model seconds (see TestMaxTimeStopsRtimeRun): a slower
// host only makes that later, so no wall-clock race decides a verdict.
func TestDistStopCauses(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback runs")
	}
	params := brusselator.DefaultParams(64, 0.05)
	params.T = 1
	prob := brusselator.New(params)
	const speedup = 50
	rows := []struct {
		name      string
		detection Detection
		backend   string
		maxIter   int
		maxTime   float64 // model seconds; 0.5 is 10 ms of wall time
		timedOut  bool
	}{
		{"dist-central-maxtime", DetectCentral, "dist", 1 << 30, 0.5, true},
		{"dist-ring-maxtime", DetectRing, "dist", 1 << 30, 0.5, true},
		{"dist-central-maxiter", DetectCentral, "dist", 30, 1000, false},
		{"dist-ring-maxiter", DetectRing, "dist", 30, 1000, false},
		{"rtime-central-maxtime", DetectCentral, "rtime", 1 << 30, 0.5, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := baseConfig(prob, 4)
			cfg.Tol = 1e-300
			cfg.Detection = row.detection
			cfg.MaxIter = row.maxIter
			cfg.MaxTime = row.maxTime
			var res *Result
			var err error
			if row.backend == "dist" {
				res, _, err = distRun(t, cfg, 2, DistWorkerOptions{Speedup: speedup})
			} else {
				cfg.Runner = rtime.Runner{Speedup: speedup}
				res, err = Run(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Converged || res.Canceled || res.TimedOut != row.timedOut {
				t.Fatalf("converged=%v timedOut=%v canceled=%v, want only timedOut=%v",
					res.Converged, res.TimedOut, res.Canceled, row.timedOut)
			}
		})
	}
}
