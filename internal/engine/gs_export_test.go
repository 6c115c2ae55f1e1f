package engine

import (
	"strings"
	"testing"

	"aiac/internal/brusselator"
)

// TestGaussSeidelLocalConvergesFaster verifies the §1.1 trade-off: local
// Gauss-Seidel sweeps reach the same fixed point in fewer iterations.
func TestGaussSeidelLocalConvergesFaster(t *testing.T) {
	prob, params := smallBruss()
	ref, _, err := brusselator.Reference(params)
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(gs bool) *Result {
		cfg := baseConfig(prob, 4)
		cfg.GaussSeidelLocal = gs
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("did not converge")
		}
		if d := maxDiffVsRef(t, res.State, ref); d > 1e-4 {
			t.Fatalf("gs=%v: solution off by %g", gs, d)
		}
		return res
	}
	jac := runWith(false)
	gs := runWith(true)
	t.Logf("jacobi: %d total iters, %.4fs; gauss-seidel: %d total iters, %.4fs",
		jac.TotalIters, jac.Time, gs.TotalIters, gs.Time)
	if gs.TotalIters >= jac.TotalIters {
		t.Fatalf("local Gauss-Seidel should use fewer iterations: %d vs %d",
			gs.TotalIters, jac.TotalIters)
	}
}

func TestResultWriteJSON(t *testing.T) {
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, key := range []string{`"time_seconds"`, `"converged": true`, `"node_iterations"`, `"total_work"`} {
		if !strings.Contains(out, key) {
			t.Fatalf("JSON missing %s:\n%s", key, out)
		}
	}
}
