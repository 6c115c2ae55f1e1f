package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aiac/internal/brusselator"
	"aiac/internal/dtime"
	"aiac/internal/fault"
	"aiac/internal/grid"
	"aiac/internal/loadbalance"
	"aiac/internal/metrics"
	"aiac/internal/rtime"
)

// distRun executes cfg over the given number of in-process loopback workers
// (goroutines joined over real TCP through the coordinator relay).
func distRun(t *testing.T, cfg Config, workers int, wopts DistWorkerOptions) (*Result, *dtime.RunInfo, error) {
	t.Helper()
	if wopts.Speedup == 0 {
		wopts.Speedup = 200
	}
	opts := DistOptions{
		Workers: workers,
		RunRoot: t.TempDir(),
		Spawn: dtime.GoroutineSpawner(func(w dtime.WorkerEnv) error {
			return RunDistWorker(cfg, w, wopts)
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
	// Graceful shutdown leaves a complete manifest.json sidecar in every
	// per-process state directory, plus the coordinator's federated one.
	for _, w := range info.Workers {
		if _, err := os.Stat(filepath.Join(w.StateDir, "manifest.json")); err != nil {
			t.Errorf("worker %d sidecar: %v", w.Worker, err)
		}
	}
	if _, err := os.Stat(filepath.Join(info.RunDir, "manifest.json")); err != nil {
		t.Errorf("federated manifest: %v", err)
	}
}

// TestDistManifestOutcomeWithoutSink: the run directory's manifest.json
// records the whole outcome even when the coordinator collects no telemetry:
// the sink-less path must not write a thinner outcome than the sealed sink's.
func TestDistManifestOutcomeWithoutSink(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed loopback run")
	}
	prob, _ := smallBruss()
	cfg := lbConfig(prob)
	cfg.MaxTime = 5000
	cfg.MaxIter = 500000
	res, info, err := distRun(t, cfg, 2, DistWorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var man metrics.Manifest
	b, err := os.ReadFile(filepath.Join(info.RunDir, "manifest.json"))
	if err == nil {
		err = json.Unmarshal(b, &man)
	}
	if err != nil || man.Outcome == nil {
		t.Fatalf("federated manifest: %v (outcome %v)", err, man.Outcome)
	}
	out := man.Outcome
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
					wrap, inj := DistFaultConn(cfg, 200)
					return RunDistWorker(cfg, w, DistWorkerOptions{
						Speedup: 200, WrapConn: wrap, WireFaults: inj,
					})
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
