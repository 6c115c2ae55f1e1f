package engine

import (
	"math"
	"testing"

	"aiac/internal/brusselator"
	"aiac/internal/grid"
	"aiac/internal/heat"
	"aiac/internal/iterative"
	"aiac/internal/loadbalance"
	"aiac/internal/metrics"
	"aiac/internal/nldiffusion"
	"aiac/internal/poisson"
	"aiac/internal/stats"
	"aiac/internal/trace"
)

// TestHeatOnEngine runs the linear heat waveform problem through the
// parallel engines and checks the physics against the exact modal decay.
func TestHeatOnEngine(t *testing.T) {
	hp := heat.DefaultParams(24, 0.002)
	prob := heat.New(hp)
	for _, mode := range []Mode{SISC, AIAC} {
		cfg := baseConfig(prob, 4)
		cfg.Mode = mode
		cfg.Tol = 1e-10
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge", mode)
		}
		i := hp.N / 2
		got := res.State[i][hp.Steps()]
		want := hp.ExactFirstMode(i+1, hp.T)
		if math.Abs(got-want) > 2e-3 {
			t.Fatalf("%s: midpoint %g want %g", mode, got, want)
		}
	}
}

// TestLBConservationProperty runs aggressive balancing across many seeds
// and platforms and checks the structural invariants: components conserved,
// famine guard respected, solution still correct.
func TestLBConservationProperty(t *testing.T) {
	p := brusselator.DefaultParams(24, 0.05)
	p.T = 1
	prob := brusselator.New(p)
	ref, _, err := brusselator.Reference(p)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 12; seed++ {
		cfg := baseConfig(prob, 4)
		cfg.Cluster = grid.Heterogeneous(4, 0.2, seed)
		cfg.Seed = seed
		cfg.LB = loadbalance.DefaultPolicy()
		cfg.LB.Period = 3
		cfg.LB.ThresholdRatio = 1.1 // aggressive: provoke crossings
		cfg.LB.MinKeep = 2
		cfg.LBWarmup = 3
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: did not converge", seed)
		}
		total := 0
		for r, c := range res.FinalCount {
			total += c
			if c < cfg.LB.MinKeep {
				t.Fatalf("seed %d: node %d below MinKeep: %v", seed, r, res.FinalCount)
			}
		}
		if total != prob.Components() {
			t.Fatalf("seed %d: components not conserved: %v", seed, res.FinalCount)
		}
		worst := 0.0
		for j := range ref {
			for i := range ref[j] {
				worst = math.Max(worst, math.Abs(res.State[j][i]-ref[j][i]))
			}
		}
		if worst > 1e-4 {
			t.Fatalf("seed %d: solution off by %g", seed, worst)
		}
	}
}

// TestLBRejectPathExercised finds the crossing-transfer reject path under
// aggressive balancing and verifies it does not corrupt the run.
func TestLBRejectPathExercised(t *testing.T) {
	p := brusselator.DefaultParams(32, 0.05)
	p.T = 1
	prob := brusselator.New(p)
	rejects := 0
	for seed := int64(0); seed < 30 && rejects == 0; seed++ {
		cfg := baseConfig(prob, 4)
		cfg.Cluster = grid.Heterogeneous(4, 0.15, seed)
		cfg.Seed = seed
		cfg.LB = loadbalance.DefaultPolicy()
		cfg.LB.Period = 1
		cfg.LB.ThresholdRatio = 1.05
		cfg.LB.MinKeep = 2
		cfg.LBWarmup = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: did not converge", seed)
		}
		rejects += res.LBRejects
	}
	if rejects == 0 {
		t.Skip("no crossing transfers provoked on any seed (protocol too polite today)")
	}
	t.Logf("exercised %d rejects", rejects)
}

// TestEstimators runs each load estimator end to end.
func TestEstimators(t *testing.T) {
	p := brusselator.DefaultParams(24, 0.05)
	p.T = 1
	prob := brusselator.New(p)
	for _, est := range []loadbalance.Estimator{
		loadbalance.EstimatorResidual,
		loadbalance.EstimatorIterTime,
		loadbalance.EstimatorCount,
	} {
		cfg := baseConfig(prob, 4)
		cfg.Cluster = grid.Heterogeneous(4, 0.3, 5)
		cfg.LB = loadbalance.DefaultPolicy()
		cfg.LB.Estimator = est
		cfg.LB.MinKeep = 2
		cfg.LB.Period = 5
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", est, err)
		}
		if !res.Converged {
			t.Fatalf("%v: did not converge", est)
		}
	}
}

// TestSmoothingKnob checks the smoothed estimator still converges and
// transfers.
func TestSmoothingKnob(t *testing.T) {
	p := brusselator.DefaultParams(32, 0.05)
	p.T = 1
	prob := brusselator.New(p)
	cfg := baseConfig(prob, 4)
	cfg.Cluster = grid.Heterogeneous(4, 0.2, 9)
	cfg.LB = loadbalance.DefaultPolicy()
	cfg.LB.Smoothing = 0.25
	cfg.LB.MinKeep = 2
	cfg.LB.Period = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
}

// TestPoissonWithLB exercises balancing on a stationary problem (tiny
// trajectories: the transfer payloads are single values).
func TestPoissonWithLB(t *testing.T) {
	pp := poisson.Params{N: 48}
	prob := poisson.New(pp)
	cfg := baseConfig(prob, 4)
	cfg.Cluster = grid.Heterogeneous(4, 0.25, 3)
	cfg.Tol = 1e-10
	cfg.MaxIter = 200000
	cfg.LB = loadbalance.DefaultPolicy()
	cfg.LB.Period = 10
	cfg.LB.MinKeep = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for i := 0; i < pp.N; i++ {
		if d := math.Abs(res.State[i][0] - pp.Exact(i+1)); d > 1e-6 {
			t.Fatalf("point %d off by %g", i, d)
		}
	}
}

// TestSIACFasterThanSISCOnSlowNetwork checks the taxonomy's core promise:
// overlapping sends must help when communications are expensive.
func TestSIACFasterThanSISCOnSlowNetwork(t *testing.T) {
	p := brusselator.DefaultParams(32, 0.05)
	p.T = 1
	prob := brusselator.New(p)
	times := map[Mode]float64{}
	for _, mode := range []Mode{SISC, SIAC, AIAC} {
		cfg := baseConfig(prob, 4)
		cfg.Mode = mode
		cl := grid.Homogeneous(4)
		cl.Intra = grid.Link{Latency: 3e-3, Bandwidth: 1e6}
		cfg.Cluster = cl
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge", mode)
		}
		times[mode] = res.Time
	}
	t.Logf("SISC %.4f SIAC %.4f AIAC %.4f", times[SISC], times[SIAC], times[AIAC])
	if times[SIAC] >= times[SISC] {
		t.Fatalf("SIAC (%g) should beat SISC (%g) on a slow network", times[SIAC], times[SISC])
	}
	if times[AIAC] >= times[SISC] {
		t.Fatalf("AIAC (%g) should beat SISC (%g) on a slow network", times[AIAC], times[SISC])
	}
}

// TestSuppressedSendsOnlyInVariant verifies the Figure-4 mutual exclusion
// is specific to the AIAC variant.
func TestSuppressedSendsOnlyInVariant(t *testing.T) {
	p := brusselator.DefaultParams(16, 0.05)
	p.T = 0.5
	prob := brusselator.New(p)
	for _, mode := range []Mode{SISC, SIAC, AIACGeneral} {
		cfg := baseConfig(prob, 2)
		cfg.Mode = mode
		cl := grid.Homogeneous(2)
		cl.Intra = grid.Link{Latency: 5e-3, Bandwidth: 1e6} // slow: suppression would trigger
		cfg.Cluster = cl
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.SuppressedSnd != 0 {
			t.Fatalf("%s: suppressed %d sends; only the AIAC variant may", mode, res.SuppressedSnd)
		}
	}
	cfg := baseConfig(prob, 2)
	cfg.Mode = AIAC
	cl := grid.Homogeneous(2)
	cl.Intra = grid.Link{Latency: 5e-3, Bandwidth: 1e6}
	cfg.Cluster = cl
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SuppressedSnd == 0 {
		t.Fatal("AIAC variant on a slow network should suppress some sends")
	}
}

// TestTraceIterCap verifies TraceIters bounds the event volume.
func TestTraceIterCap(t *testing.T) {
	p := brusselator.DefaultParams(16, 0.05)
	p.T = 1
	prob := brusselator.New(p)
	capped := &trace.Log{}
	cfg := baseConfig(prob, 2)
	cfg.Trace = capped
	cfg.TraceIters = 3
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, ev := range capped.Filter(trace.Compute) {
		if ev.Iter >= 3 {
			t.Fatalf("compute event beyond TraceIters: %+v", ev)
		}
	}
}

// TestSISCMatchesSequentialIterationCount validates the §1.2 claim that
// SISC "performs exactly the same iterations as the sequential version":
// lockstep iteration counts must equal the sequential sweep count for the
// same tolerance.
func TestSISCMatchesSequentialIterationCount(t *testing.T) {
	p := brusselator.DefaultParams(16, 0.05)
	p.T = 1
	prob := brusselator.New(p)
	seq, err := iterative.SolveSequential(prob, 1e-7, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{2, 4, 8} {
		cfg := baseConfig(prob, np)
		cfg.Mode = SISC
		res, errRun := Run(cfg)
		if errRun != nil {
			t.Fatalf("P=%d: %v", np, errRun)
		}
		if !res.Converged {
			t.Fatalf("P=%d: did not converge", np)
		}
		for r, it := range res.NodeIters {
			if it != seq.Iterations {
				t.Fatalf("P=%d node %d: %d iterations, sequential needed %d",
					np, r, it, seq.Iterations)
			}
		}
	}
}

// TestNLDiffusionOnEngine runs the nonlinear stationary problem through the
// asynchronous engine.
func TestNLDiffusionOnEngine(t *testing.T) {
	np := nldiffusion.DefaultParams(32)
	prob := nldiffusion.New(np)
	cfg := baseConfig(prob, 4)
	cfg.Cluster = grid.Heterogeneous(4, 0.3, 13)
	cfg.Tol = 1e-11
	cfg.MaxIter = 500000
	cfg.LB = loadbalance.DefaultPolicy()
	cfg.LB.MinKeep = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if r := prob.ResidualNorm(res.State); r > 1e-9 {
		t.Fatalf("nonlinear residual %g", r)
	}
	h := 1 / float64(np.N+1)
	for j := 0; j < np.N; j++ {
		x := float64(j+1) * h
		if d := math.Abs(res.State[j][0] - nldiffusion.Exact(x)); d > 5*h*h {
			t.Fatalf("point %d off by %g", j, d)
		}
	}
}

// TestResidualDecayIsGeometric fits the contraction factor from the
// per-sweep telemetry samples of a run and checks the decay is clean (the
// theory behind the whole method: the waveform iteration is a contraction).
func TestResidualDecayIsGeometric(t *testing.T) {
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 2)
	s := &metrics.Sink{Cap: cfg.MaxIter + 1}
	cfg.Metrics = s
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	var rs []float64
	for _, sm := range s.Samples(0) {
		rs = append(rs, sm.Residual)
	}
	// skip the transient head, fit the tail
	if len(rs) < 20 {
		t.Fatalf("history too short: %d", len(rs))
	}
	rate, r2 := stats.DecayRate(rs[5:])
	if rate <= 0 || rate >= 1 {
		t.Fatalf("contraction factor %g not in (0,1)", rate)
	}
	if r2 < 0.9 {
		t.Fatalf("decay not geometric enough: R² = %g (rate %g)", r2, rate)
	}
	t.Logf("fitted contraction factor %.3f (R² %.3f)", rate, r2)
}

// TestMappingChangesPlacement verifies Config.Mapping reroutes ranks to
// cluster nodes: putting the chain on the slow node first vs last changes
// nothing globally (symmetric), but mapping all ranks onto fast nodes of a
// larger cluster must beat mapping them onto slow ones.
func TestMappingChangesPlacement(t *testing.T) {
	prob, _ := smallBruss()
	cl := grid.Homogeneous(8)
	for i := 4; i < 8; i++ {
		cl.Nodes[i].Speed *= 0.25 // nodes 4..7 are slow
	}
	runWith := func(mapping []int) float64 {
		cfg := baseConfig(prob, 4)
		cfg.Cluster = cl
		cfg.Mapping = mapping
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("did not converge")
		}
		return res.Time
	}
	fast := runWith([]int{0, 1, 2, 3})
	slow := runWith([]int{4, 5, 6, 7})
	if fast >= slow {
		t.Fatalf("fast placement (%g) must beat slow placement (%g)", fast, slow)
	}
	if ratio := slow / fast; ratio < 2 {
		t.Fatalf("4x speed difference should show up strongly, got %.2fx", ratio)
	}
}

// TestMappingValidation checks mapping sanity rules.
func TestMappingValidation(t *testing.T) {
	prob, _ := smallBruss()
	cases := [][]int{
		{0, 1},        // too short for P=4
		{0, 1, 2, 99}, // out of range
		{0, 1, 2, 2},  // duplicate
		{-1, 1, 2, 3}, // negative
	}
	for i, m := range cases {
		cfg := baseConfig(prob, 4)
		cfg.Mapping = m
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d should fail: %v", i, m)
		}
	}
	good := baseConfig(prob, 4)
	good.Cluster = grid.Homogeneous(8)
	good.Mapping = []int{7, 3, 5, 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}
