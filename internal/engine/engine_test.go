package engine

import (
	"math"
	"testing"

	"aiac/internal/brusselator"
	"aiac/internal/grid"
	"aiac/internal/iterative"
	"aiac/internal/loadbalance"
	"aiac/internal/poisson"
	"aiac/internal/rtime"
	"aiac/internal/trace"
)

func smallBruss() (*brusselator.Problem, brusselator.Params) {
	p := brusselator.DefaultParams(16, 0.05)
	p.T = 1
	return brusselator.New(p), p
}

func baseConfig(prob iterative.Problem, p int) Config {
	return Config{
		Mode:    AIAC,
		P:       p,
		Problem: prob,
		Cluster: grid.Homogeneous(p),
		Tol:     1e-7,
		MaxIter: 20000,
		Seed:    1,
	}
}

// maxDiffVsRef is the largest pointwise distance of state from ref, or +Inf
// as soon as one is NaN, so that a state of NaNs fails every `d > tol`.
func maxDiffVsRef(t *testing.T, state [][]float64, ref [][]float64) float64 {
	t.Helper()
	if len(state) != len(ref) {
		t.Fatalf("state has %d components, ref %d", len(state), len(ref))
	}
	worst := 0.0
	for j := range state {
		for i := range state[j] {
			d := math.Abs(state[j][i] - ref[j][i])
			if math.IsNaN(d) {
				return math.Inf(1)
			}
			worst = max(worst, d)
		}
	}
	return worst
}

func TestMaxDiffVsRefSeesNaN(t *testing.T) {
	ref := [][]float64{{1, 2}, {3, 4}}
	for _, tc := range []struct {
		name  string
		state [][]float64
		want  float64
	}{
		{"equal", [][]float64{{1, 2}, {3, 4}}, 0},
		{"off", [][]float64{{1, 2.5}, {3, 3}}, 1},
		{"one NaN", [][]float64{{1, 2}, {math.NaN(), 4}}, math.Inf(1)},
		{"all NaN", [][]float64{{math.NaN(), math.NaN()}, {math.NaN(), math.NaN()}}, math.Inf(1)},
		{"Inf", [][]float64{{1, 2}, {3, math.Inf(-1)}}, math.Inf(1)},
	} {
		if got := maxDiffVsRef(t, tc.state, ref); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestAllModesSolveBrusselator(t *testing.T) {
	prob, params := smallBruss()
	ref, _, err := brusselator.Reference(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{SISC, SIAC, AIACGeneral, AIAC} {
		cfg := baseConfig(prob, 4)
		cfg.Mode = mode
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge (residual %g)", mode, res.MaxResidual)
		}
		if d := maxDiffVsRef(t, res.State, ref); d > 1e-4 {
			t.Fatalf("%s: solution off by %g", mode, d)
		}
		if res.Time <= 0 {
			t.Fatalf("%s: no time elapsed", mode)
		}
		t.Logf("%s: time %.4fs, iters %v", mode, res.Time, res.NodeIters)
	}
}

func TestSISCIsLockstep(t *testing.T) {
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 4)
	cfg.Mode = SISC
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.NodeIters {
		if it != res.NodeIters[0] {
			t.Fatalf("SISC nodes diverged in iteration counts: %v", res.NodeIters)
		}
	}
}

func TestAIACWithLoadBalancing(t *testing.T) {
	prob, params := smallBruss()
	ref, _, err := brusselator.Reference(params)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(prob, 4)
	cfg.LB = loadbalance.DefaultPolicy()
	cfg.LB.Period = 5
	cfg.LB.MinKeep = 2
	cfg.LBWarmup = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: residual %g", res.MaxResidual)
	}
	if d := maxDiffVsRef(t, res.State, ref); d > 1e-4 {
		t.Fatalf("balanced solution off by %g", d)
	}
	total := 0
	for _, c := range res.FinalCount {
		total += c
		if c < cfg.LB.MinKeep {
			t.Fatalf("famine guard violated: counts %v", res.FinalCount)
		}
	}
	if total != prob.Components() {
		t.Fatalf("components not conserved: %v sums to %d, want %d",
			res.FinalCount, total, prob.Components())
	}
	t.Logf("time %.4fs, transfers %d (rejected %d), moved %d, final %v",
		res.Time, res.LBTransfers, res.LBRejects, res.LBCompsMoved, res.FinalCount)
}

func TestLBActuallyTransfersOnHeterogeneousCluster(t *testing.T) {
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 4)
	cfg.Cluster = grid.Heterogeneous(4, 0.25, 7)
	cfg.LB = loadbalance.DefaultPolicy()
	cfg.LB.Period = 5
	cfg.LB.MinKeep = 2
	cfg.LBWarmup = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.LBTransfers == 0 {
		t.Fatal("expected at least one accepted transfer on a heterogeneous cluster")
	}
}

func TestLBSpeedsUpHeterogeneousRun(t *testing.T) {
	p := brusselator.DefaultParams(48, 0.05)
	p.T = 1
	prob := brusselator.New(p)
	mk := func(lb bool) float64 {
		cfg := baseConfig(prob, 6)
		cfg.Cluster = grid.Heterogeneous(6, 0.2, 11)
		cfg.Tol = 1e-6
		if lb {
			cfg.LB = loadbalance.DefaultPolicy()
			cfg.LB.Period = 10
			cfg.LB.MinKeep = 2
			cfg.LBWarmup = 10
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("did not converge")
		}
		return res.Time
	}
	without := mk(false)
	with := mk(true)
	t.Logf("heterogeneous 6 nodes: without LB %.3fs, with LB %.3fs (ratio %.2f)",
		without, with, without/with)
	if with >= without {
		t.Fatalf("LB should win on a heterogeneous cluster: %g vs %g", with, without)
	}
}

func TestDeterministicOnVirtualTime(t *testing.T) {
	prob, _ := smallBruss()
	run := func() *Result {
		cfg := baseConfig(prob, 4)
		cfg.LB = loadbalance.DefaultPolicy()
		cfg.LB.Period = 5
		cfg.LB.MinKeep = 2
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Time != b.Time || a.TotalIters != b.TotalIters || a.LBTransfers != b.LBTransfers {
		t.Fatalf("virtual-time runs differ: %v/%v, %v/%v, %v/%v",
			a.Time, b.Time, a.TotalIters, b.TotalIters, a.LBTransfers, b.LBTransfers)
	}
}

func TestSingleNode(t *testing.T) {
	prob, params := smallBruss()
	ref, _, err := brusselator.Reference(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{SISC, AIAC} {
		cfg := baseConfig(prob, 1)
		cfg.Mode = mode
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge", mode)
		}
		if d := maxDiffVsRef(t, res.State, ref); d > 1e-4 {
			t.Fatalf("%s: off by %g", mode, d)
		}
	}
}

func TestPoissonStationaryOnAllModes(t *testing.T) {
	pp := poisson.Params{N: 32}
	prob := poisson.New(pp)
	for _, mode := range []Mode{SISC, SIAC, AIACGeneral, AIAC} {
		cfg := baseConfig(prob, 4)
		cfg.Mode = mode
		cfg.Tol = 1e-10
		cfg.MaxIter = 100000
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge", mode)
		}
		for i := 0; i < pp.N; i++ {
			if d := math.Abs(res.State[i][0] - pp.Exact(i+1)); d > 1e-6 {
				t.Fatalf("%s: point %d off by %g", mode, i, d)
			}
		}
	}
}

func TestAbortOnMaxIter(t *testing.T) {
	prob, _ := smallBruss()
	for _, mode := range []Mode{SISC, SIAC, AIAC} {
		cfg := baseConfig(prob, 4)
		cfg.Mode = mode
		cfg.Tol = 1e-300 // unreachable
		cfg.MaxIter = 30
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Converged {
			t.Fatalf("%s: cannot have converged to 1e-300", mode)
		}
		for r, it := range res.NodeIters {
			if it > cfg.MaxIter+1 {
				t.Fatalf("%s: node %d ran %d iterations past MaxIter", mode, r, it)
			}
		}
	}
}

func TestMaxTimeStops(t *testing.T) {
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 4)
	cfg.Tol = 1e-300
	cfg.MaxIter = 1 << 30
	// well below the dozens of iterations any convergence needs (one
	// iteration alone costs ~0.3 ms of virtual time here)
	cfg.MaxTime = 0.003
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("cannot have converged")
	}
	if !res.TimedOut {
		t.Fatal("expected TimedOut")
	}
}

func TestTraceCollection(t *testing.T) {
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 2)
	log := &trace.Log{}
	cfg.Trace = log
	cfg.TraceIters = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if len(log.Filter(trace.Compute)) == 0 {
		t.Fatal("no compute spans recorded")
	}
	if len(log.Filter(trace.SendRight)) == 0 {
		t.Fatal("no sends recorded")
	}
}

func TestRealTimeRunnerCrossCheck(t *testing.T) {
	prob, params := smallBruss()
	ref, _, err := brusselator.Reference(params)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(prob, 4)
	cfg.LB = loadbalance.DefaultPolicy()
	cfg.LB.Period = 5
	cfg.LB.MinKeep = 2
	cfg.Runner = rtime.Runner{Speedup: 200}
	cfg.MaxTime = 60 // model seconds; watchdog only
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("real-time run did not converge (residual %g)", res.MaxResidual)
	}
	if d := maxDiffVsRef(t, res.State, ref); d > 1e-4 {
		t.Fatalf("real-time solution off by %g", d)
	}
}

func TestConfigValidation(t *testing.T) {
	prob, _ := smallBruss()
	good := baseConfig(prob, 4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Problem = nil },
		func(c *Config) { c.Cluster = nil },
		func(c *Config) { c.P = 0 },
		func(c *Config) { c.P = 99 }, // more than cluster nodes
		func(c *Config) { c.Tol = 0 },
		func(c *Config) { c.MaxIter = 0 },
		func(c *Config) { c.P = 4; c.Mode = SISC; c.LB = loadbalance.DefaultPolicy() },
		func(c *Config) {
			c.LB = loadbalance.DefaultPolicy()
			c.LB.ThresholdRatio = 0.5
			c.Mode = AIAC
		},
	}
	for i, mutate := range cases {
		cfg := baseConfig(prob, 4)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestConfigValidationRejectsOutOfRange pins the knobs whose zero means "the
// default" or "no bound": a negative value (or an unnamed mode/protocol) is
// refused by Validate and by Run, instead of running.
func TestConfigValidationRejectsOutOfRange(t *testing.T) {
	p := brusselator.DefaultParams(8, 0.05)
	p.T = 1
	prob := brusselator.New(p)
	base := baseConfig(prob, 2)
	base.Tol = 1e-6
	if res, err := Run(base); err != nil || !res.Converged {
		t.Fatalf("valid config: %v / %+v", err, res)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"WorkScale -1", func(c *Config) { c.WorkScale = -1 }},
		{"Mode 9", func(c *Config) { c.Mode = 9 }},
		{"Mode -1", func(c *Config) { c.Mode = -1 }},
		{"Detection 7", func(c *Config) { c.Detection = 7 }},
		{"MaxTime -1", func(c *Config) { c.MaxTime = -1 }},
		{"MaxTime NaN", func(c *Config) { c.MaxTime = math.NaN() }},
		{"LBWarmup -3", func(c *Config) { c.LBWarmup = -3 }},
		{"TraceIters -1", func(c *Config) { c.TraceIters = -1 }},
	} {
		cfg := base
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
		if res, err := Run(cfg); err == nil {
			t.Errorf("%s: Run ran it (%d iterations)", tc.name, res.TotalIters)
		}
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{SISC, SIAC, AIACGeneral, AIAC, Mode(42)} {
		if m.String() == "" {
			t.Fatal("empty mode name")
		}
	}
	if !SISC.Synchronous() || AIAC.Synchronous() {
		t.Fatal("Synchronous() wrong")
	}
}
