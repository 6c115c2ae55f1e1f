package vtime_test

import (
	"testing"

	"aiac"
	"aiac/internal/brusselator"
	"aiac/internal/runenv"
	"aiac/internal/vtime"
)

// countingRunner runs the world on a fresh scheduler and keeps its
// hand-off count.
type countingRunner struct{ handoffs *int64 }

func (r countingRunner) Run(cfg runenv.Config, bodies []runenv.Body) float64 {
	s := vtime.New(cfg)
	end := s.Run(bodies)
	*r.handoffs = s.Handoffs()
	return end
}

// TestTable1HandoffBudget: the benchmark's vt-table1 solve (the paper's
// Table-1 platform: 15 ranks, 3 sites, load balancing) sweeps ≈9 components
// per iteration, and used to hand control to a process once per component:
// 176 361 hand-offs for 22 628 iterations. With deferred wakes a process
// yields once per iteration plus once per blocking wait.
func TestTable1HandoffBudget(t *testing.T) {
	p := brusselator.DefaultParams(120, 0.005)
	p.T = 0.25
	lb := aiac.DefaultLBPolicy()
	lb.Period, lb.MinKeep, lb.Smoothing = 20, 2, 0.2
	var handoffs int64
	res, err := aiac.Solve(aiac.Config{
		Problem: brusselator.New(p),
		Cluster: aiac.HeteroGrid15(aiac.HeteroGridConfig{Seed: 100, MultiUser: true}),
		Mode:    aiac.AIAC, P: 15, Tol: 1e-6, MaxIter: 200000, MaxTime: 100000,
		LB:     lb,
		Runner: countingRunner{&handoffs},
	})
	if err != nil || !res.Converged {
		t.Fatalf("solve: converged=%v err=%v", res != nil && res.Converged, err)
	}
	const budget = 30000
	if handoffs > budget {
		t.Fatalf("%d scheduler hand-offs for the Table-1 solve, budget %d", handoffs, budget)
	}
	t.Logf("%d hand-offs", handoffs)
}
