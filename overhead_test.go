package aiac_test

import (
	"runtime"
	"testing"

	"aiac"
)

// TestSolveAllocBudgetWithoutMetrics pins the allocation cost of a complete
// load-balanced AIAC solve with telemetry disabled (Config.Metrics nil), in
// allocations and in bytes. The instrumentation hooks in the engine and
// runtimes are nil-checked inline, so leaving metrics off must not add
// allocations to the hot path, and the halo exchange circulates its
// trajectory buffers instead of cloning one per message (DESIGN §11.1): with
// a clone per send this solve made 2768 allocations and 441 KB, today 2011 and
// 148 KB. Under virtual time the count repeats to ±2 and the bytes to a few
// KB, so the headroom is for toolchain drift, not for noise.
func TestSolveAllocBudgetWithoutMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full solves under AllocsPerRun are too slow for -short")
	}
	params := aiac.BrusselatorParams(32, 0.05)
	params.T = 1
	prob := aiac.NewBrusselator(params)
	solve := func() {
		res, err := aiac.Solve(aiac.Config{
			Mode: aiac.AIAC, P: 4, Problem: prob,
			Cluster: aiac.Homogeneous(4),
			Tol:     1e-7, MaxIter: 100000,
			LB: aiac.DefaultLBPolicy(), Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("did not converge")
		}
	}
	allocs := testing.AllocsPerRun(3, solve)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solve()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	const budget, byteBudget = 2300, 200 << 10
	t.Logf("disabled-metrics solve: %.0f allocs, %d bytes", allocs, bytes)
	if allocs > budget {
		t.Errorf("solve with metrics disabled allocated %.0f times, budget %d", allocs, budget)
	}
	if bytes > byteBudget {
		t.Errorf("solve with metrics disabled allocated %d bytes, budget %d", bytes, byteBudget)
	}
}
