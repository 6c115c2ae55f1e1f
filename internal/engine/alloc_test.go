//go:build !race

package engine

import (
	"runtime"
	"testing"

	"aiac/internal/brusselator"
	"aiac/internal/grid"
	"aiac/internal/loadbalance"
)

// TestTable1AllocBudget pins what the benchmark's vt-table1 solve
// (bench/workloads.go, without the per-seed speed jitter) asks of the
// allocator. The engine's data plane circulates its trajectory buffers and
// boundary messages through one list per run instead of dropping them to the
// GC; a path that starts dropping them again — a clone on a send, a message
// no one keeps, a list a node keeps to itself — changes no result and fails
// no other test. The budget is per solve and a solve's count repeats exactly
// on virtual time: 600 840 bytes in 2 564 allocations when it was set, from
// 800 096 in 3 270 with a list per node, and 2 127 992 in 16 023 before the
// data plane circulated.
func TestTable1AllocBudget(t *testing.T) {
	const maxBytes, maxAllocs = 700_000, 2900
	p := brusselator.DefaultParams(120, 0.005)
	p.T = 0.25
	lb := loadbalance.DefaultPolicy()
	lb.Period, lb.MinKeep, lb.Smoothing = 20, 2, 0.2
	// Like the benchmark's session, every solve runs on one problem and one
	// platform: what is counted is the solve.
	cfg := Config{
		Mode: AIAC, P: 15, Tol: 1e-6, MaxIter: 200000, MaxTime: 100000, LB: lb,
		Problem: brusselator.New(p),
		Cluster: grid.HeteroGrid15(grid.HeteroGridConfig{Seed: 100, MultiUser: true}),
	}
	solve := func() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.TotalIters != 22628 {
			t.Fatalf("not the Table-1 solve: converged %v after %d iterations (want 22628)", res.Converged, res.TotalIters)
		}
	}
	solve() // warm-up: first-use allocations outside the engine
	// The least of three solves: a goroutine left over from an earlier test
	// can only add to a reading.
	bytes, allocs := uint64(1<<63), uint64(1<<63)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		solve()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	t.Logf("one Table-1 solve: %d bytes in %d allocations", bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("one Table-1 solve allocates %d bytes in %d allocations, budget %d bytes and %d allocations",
			bytes, allocs, maxBytes, maxAllocs)
	}
}
