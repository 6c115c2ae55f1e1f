package brusselator

import (
	"math"
	"testing"

	"aiac/internal/iterative"
)

func TestParamsValidate(t *testing.T) {
	good := DefaultParams(16, 0.05)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{N: 0, Alpha: 0.02, T: 10, Dt: 0.1, NewtonTol: 1e-8, MaxNewton: 10},
		{N: 4, Alpha: 0, T: 10, Dt: 0.1, NewtonTol: 1e-8, MaxNewton: 10},
		{N: 4, Alpha: 0.02, T: 0, Dt: 0.1, NewtonTol: 1e-8, MaxNewton: 10},
		{N: 4, Alpha: 0.02, T: 10, Dt: 0, NewtonTol: 1e-8, MaxNewton: 10},
		{N: 4, Alpha: 0.02, T: 1, Dt: 2, NewtonTol: 1e-8, MaxNewton: 10},
		{N: 4, Alpha: 0.02, T: 10, Dt: 0.1, NewtonTol: 0, MaxNewton: 10},
		{N: 4, Alpha: 0.02, T: 10, Dt: 0.1, NewtonTol: 1e-8, MaxNewton: 0},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
}

func TestProblemShape(t *testing.T) {
	p := DefaultParams(8, 0.1)
	pr := New(p)
	if pr.Components() != 8 {
		t.Fatalf("Components = %d", pr.Components())
	}
	if pr.TrajLen() != 2*101 {
		t.Fatalf("TrajLen = %d", pr.TrajLen())
	}
	if pr.Halo() != 1 {
		t.Fatalf("Halo = %d", pr.Halo())
	}
	if err := iterative.CheckProblem(pr); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixExtensionConforms runs iterative.CheckProblem's PrefixUpdater
// conformance over the shapes the engine meets: odd and even cell counts (a
// lone last component or none), a single cell, and windows of 1 and 50 steps.
func TestPrefixExtensionConforms(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16} {
		for _, steps := range []int{1, 50} {
			p := DefaultParams(n, 0.02)
			p.T = p.Dt * float64(steps)
			pr := New(p)
			if pr.steps != steps {
				t.Fatalf("N=%d: %d steps, want %d", n, pr.steps, steps)
			}
			if err := iterative.CheckProblem(pr); err != nil {
				t.Errorf("N=%d, %d steps: %v", n, steps, err)
			}
		}
	}
}

func TestInitialConditions(t *testing.T) {
	p := DefaultParams(10, 0.1)
	pr := New(p)
	for k := 0; k < pr.Components(); k++ {
		init := pr.Init(k)
		want := 1 + math.Sin(2*math.Pi*float64(k+1)/11)
		if math.Abs(init[0]-want) > 1e-15 {
			t.Fatalf("u_%d init = %g, want %g", k+1, init[0], want)
		}
		if init[1] != 3 {
			t.Fatalf("v init = %g", init[1])
		}
		// constant over the window (waveform initial guess)
		for tt := 0; tt < len(init)/2; tt++ {
			if init[2*tt] != init[0] || init[2*tt+1] != init[1] {
				t.Fatal("Init must be constant in time")
			}
		}
	}
}

func TestSequentialWaveformConverges(t *testing.T) {
	p := DefaultParams(12, 0.05)
	p.T = 2 // short window keeps the test fast
	pr := New(p)
	res, err := iterative.SolveSequential(pr, 1e-8, 500)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("converged in %d sweeps, %.0f work units", res.Iterations, res.Work)
	if res.Iterations < 3 {
		t.Fatalf("suspiciously fast convergence: %d sweeps", res.Iterations)
	}
	// residual history must be (eventually) decreasing
	h := res.ResidualHistory
	if h[len(h)-1] >= h[0] {
		t.Fatalf("residuals did not decrease: first %g last %g", h[0], h[len(h)-1])
	}
}

func TestWaveformMatchesReference(t *testing.T) {
	p := DefaultParams(10, 0.05)
	p.T = 2
	pr := New(p)
	res, err := iterative.SolveSequential(pr, 1e-10, 2000)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Reference(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxTrajDiff(res.State, ref); d > 1e-6 {
		t.Fatalf("waveform vs full-system reference differ by %g", d)
	}
}

func TestFullWindowMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full [0,10] window in -short mode")
	}
	// the paper's full time window [0, 10]
	p := DefaultParams(8, 0.05)
	pr := New(p)
	res, err := iterative.SolveSequential(pr, 1e-9, 5000)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Reference(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxTrajDiff(res.State, ref); d > 1e-5 {
		t.Fatalf("waveform vs reference differ by %g on [0,10]", d)
	}
	t.Logf("full window: %d sweeps", res.Iterations)
}

func TestReferenceOscillates(t *testing.T) {
	// The Brusselator's hallmark is the oscillating reaction: over the
	// full window [0, 10] a mid-domain u component must move substantially.
	p := DefaultParams(12, 0.05)
	ref, _, err := Reference(p)
	if err != nil {
		t.Fatal(err)
	}
	mid := U(ref[p.N/2])
	lo, hi := mid[0], mid[0]
	for _, v := range mid {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo < 0.5 {
		t.Fatalf("u range %g too small; dynamics look frozen", hi-lo)
	}
	// concentrations stay positive and bounded
	for j := range ref {
		for _, v := range ref[j] {
			if v < 0 || v > 10 || math.IsNaN(v) {
				t.Fatalf("cell %d out of physical range: %g", j, v)
			}
		}
	}
}

func TestWorkIsAdaptive(t *testing.T) {
	// Near the fixed point a sweep must be much cheaper than the first
	// sweeps: the converged Newton warm start costs 1 iteration per step.
	p := DefaultParams(8, 0.05)
	p.T = 1
	pr := New(p)
	res, err := iterative.SolveSequential(pr, 1e-10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// One more sweep from the converged state:
	get := func(i int) []float64 { return res.State[i] }
	out := make([]float64, pr.TrajLen())
	convergedWork := 0.0
	for j := 0; j < pr.Components(); j++ {
		convergedWork += pr.Update(j, res.State[j], get, out)
	}
	// Minimum possible work = 1 per step per cell.
	minWork := float64(pr.Components() * pr.p.Steps())
	if convergedWork > 1.2*minWork {
		t.Fatalf("converged sweep cost %g, want near the floor %g", convergedWork, minWork)
	}
	avgWork := res.Work / float64(res.Iterations)
	if avgWork <= convergedWork*1.05 {
		t.Fatalf("average sweep (%g) should cost more than a converged sweep (%g)", avgWork, convergedWork)
	}
}

func TestUVExtractors(t *testing.T) {
	traj := []float64{1, 2, 3, 4, 5, 6}
	u, v := U(traj), V(traj)
	if len(u) != 3 || u[0] != 1 || u[1] != 3 || u[2] != 5 {
		t.Fatalf("U = %v", u)
	}
	if len(v) != 3 || v[0] != 2 || v[1] != 4 || v[2] != 6 {
		t.Fatalf("V = %v", v)
	}
}

func TestUpdateOutOfRangePanics(t *testing.T) {
	pr := New(DefaultParams(4, 0.1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	out := make([]float64, pr.TrajLen())
	pr.Update(99, pr.Init(0), func(i int) []float64 { return nil }, out)
}

func TestCAndSteps(t *testing.T) {
	p := DefaultParams(49, 0.1)
	if math.Abs(p.C()-50) > 1e-12 {
		t.Fatalf("C = %g, want 50", p.C())
	}
	if p.Steps() != 100 {
		t.Fatalf("Steps = %d", p.Steps())
	}
}
