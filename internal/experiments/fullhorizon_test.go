package experiments

import (
	"math"
	"testing"

	"aiac/internal/brusselator"
	"aiac/internal/engine"
	"aiac/internal/grid"
	"aiac/internal/iterative"
	"aiac/internal/loadbalance"
)

func windowTemplate(p int) engine.Config {
	return engine.Config{
		Mode:    engine.AIAC,
		P:       p,
		Cluster: grid.Homogeneous(p),
		Tol:     1e-9,
		MaxIter: 100000,
		Seed:    1,
	}
}

func brussFactory(n int, windowT, dt float64) windowFactory {
	return func(w int, prev [][]float64) iterative.Problem {
		p := brusselator.DefaultParams(n, dt)
		p.T = windowT
		if prev != nil {
			p.Init0 = brusselator.FinalState(prev)
		}
		return brusselator.New(p)
	}
}

func TestWindowedMatchesSingleWindow(t *testing.T) {
	const n = 12
	// 4 windows of 0.5 vs a single reference integration over [0, 2]
	res, err := solveWindows(windowTemplate(3), 4, brussFactory(n, 0.5, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Windows) != 4 {
		t.Fatalf("windows: %d converged: %v", len(res.Windows), res.Converged)
	}
	full := brusselator.DefaultParams(n, 0.05)
	full.T = 2
	ref, _, err := brusselator.Reference(full)
	if err != nil {
		t.Fatal(err)
	}
	stitched := res.stitchTrajectories(2)
	if len(stitched) != n {
		t.Fatalf("stitched %d components", len(stitched))
	}
	if len(stitched[0]) != len(ref[0]) {
		t.Fatalf("stitched length %d, reference %d", len(stitched[0]), len(ref[0]))
	}
	worst := 0.0
	for j := range ref {
		for i := range ref[j] {
			worst = math.Max(worst, math.Abs(stitched[j][i]-ref[j][i]))
		}
	}
	if worst > 1e-5 {
		t.Fatalf("windowed solution off by %g from the single-shot reference", worst)
	}
	t.Logf("4x0.5 windows: %.4fs total, %d iters, max dev %.2g", res.Time, res.TotalIters, worst)
}

func TestWindowingIsFasterThanOneLongWindow(t *testing.T) {
	const n = 16
	// waveform contraction degrades with window length: many short
	// windows should need less total work than one long one
	long, err := solveWindows(windowTemplate(2), 1, brussFactory(n, 2, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	short, err := solveWindows(windowTemplate(2), 4, brussFactory(n, 0.5, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("1x2.0: %.4fs %.0f work; 4x0.5: %.4fs %.0f work",
		long.Time, long.TotalWork, short.Time, short.TotalWork)
	if short.TotalWork >= long.TotalWork {
		t.Fatalf("windowing should reduce total work: %g vs %g", short.TotalWork, long.TotalWork)
	}
}

func TestWindowingWithLB(t *testing.T) {
	cfg := windowTemplate(4)
	cfg.Cluster = grid.Heterogeneous(4, 0.3, 7)
	cfg.LB = loadbalance.DefaultPolicy()
	cfg.LB.MinKeep = 2
	cfg.LB.Period = 5
	res, err := solveWindows(cfg, 3, brussFactory(16, 0.5, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.LBTransfers == 0 {
		t.Log("note: no transfers happened across the windows")
	}
}

func TestWindowingValidation(t *testing.T) {
	if _, err := solveWindows(windowTemplate(2), 0, brussFactory(8, 0.5, 0.05)); err == nil {
		t.Fatal("zero windows should fail")
	}
	if _, err := solveWindows(windowTemplate(2), 1, nil); err == nil {
		t.Fatal("nil factory should fail")
	}
	if _, err := solveWindows(windowTemplate(2), 1, func(int, [][]float64) iterative.Problem { return nil }); err == nil {
		t.Fatal("nil problem should fail")
	}
}

func TestStitchPointWidthPanics(t *testing.T) {
	res := &windowedResult{Windows: []*engine.Result{{State: [][]float64{{1, 2}}}}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	res.stitchTrajectories(0)
}

func TestWindowedResultAggregates(t *testing.T) {
	res, err := solveWindows(windowTemplate(2), 3, brussFactory(8, 0.25, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	sumT, sumI := 0.0, 0
	for _, w := range res.Windows {
		sumT += w.Time
		sumI += w.TotalIters
	}
	if res.Time != sumT || res.TotalIters != sumI {
		t.Fatalf("aggregates: %g/%g, %d/%d", res.Time, sumT, res.TotalIters, sumI)
	}
}

func TestWindowSeedsAdvance(t *testing.T) {
	// windows get distinct seeds: identical configs should not replay the
	// exact same execution (times differ across windows even at the fixed
	// point of the platform)
	cfg := windowTemplate(2)
	cfg.Seed = 5
	res, err := solveWindows(cfg, 2, brussFactory(8, 0.25, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 2 {
		t.Fatalf("windows: %d", len(res.Windows))
	}
}
