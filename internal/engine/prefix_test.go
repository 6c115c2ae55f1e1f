package engine

import (
	"testing"

	"aiac/internal/brusselator"
	"aiac/internal/fault"
	"aiac/internal/grid"
	"aiac/internal/iterative"
	"aiac/internal/loadbalance"
)

// noPrefix hides a problem's PrefixUpdater extension and keeps its fused
// update: what a decorator written before the extension existed forwards
// (bench/decorators.go is one), and the sweep as it was — every step of every
// trajectory solved on every sweep.
type noPrefix struct {
	iterative.Problem
	iterative.PairUpdater
}

func hidePrefix(p *brusselator.Problem) iterative.Problem { return noPrefix{p, p} }

// TestPrefixSkipIsInvisible: carrying frozen prefixes over is an optimisation
// of the sweep and of nothing a run can show. Every cell of the golden grid
// (TestParallelEngineEquivalence: mode × detection × platform × faults × LB ×
// mapping), plus the shapes the bookkeeping could get wrong — a lone last
// component, ranges no wider than the halo, local Gauss-Seidel — runs twice,
// with the problem as it is and with its extension hidden, and must digest
// the same: Result, telemetry and trace.
func TestPrefixSkipIsInvisible(t *testing.T) {
	small, _ := smallBruss()
	wide := brusselator.New(func() brusselator.Params {
		p := brusselator.DefaultParams(32, 0.05)
		p.T = 1
		return p
	}())
	lb := func(period, minKeep int) loadbalance.Policy {
		p := loadbalance.DefaultPolicy()
		p.Period, p.MinKeep = period, minKeep
		return p
	}
	cases := []struct {
		name string
		prob *brusselator.Problem
		p    int
		mod  func(cfg *Config)
	}{
		{"aiac-lb-central-homogeneous", small, 4, func(cfg *Config) {
			cfg.LB = lb(5, 2)
		}},
		{"aiac-lb-ring-heterogrid", wide, 8, func(cfg *Config) {
			cfg.Cluster = grid.HeteroGrid15(grid.HeteroGridConfig{Seed: 42, MultiUser: true})
			cfg.Detection = DetectRing
			cfg.Tol, cfg.MaxTime = 1e-6, 30
			cfg.LB = lb(10, 2)
		}},
		{"aiac-faults-heterogrid", wide, 6, func(cfg *Config) {
			cfg.Cluster = grid.HeteroGrid15(grid.HeteroGridConfig{Seed: 7})
			cfg.Tol, cfg.MaxTime = 1e-6, 30
			cfg.Faults = &fault.Plan{Seed: 3, Msg: fault.Rates{Drop: 0.03, Dup: 0.02, Reorder: 0.05, Spike: 0.02}}
		}},
		{"sisc-barrier-faulted", small, 4, func(cfg *Config) {
			cfg.Mode = SISC
			cfg.Faults = &fault.Plan{Seed: 11, Msg: fault.Rates{Spike: 0.1}}
		}},
		{"siac-central-heterogeneous", small, 4, func(cfg *Config) {
			cfg.Mode = SIAC
			cfg.Cluster = grid.Heterogeneous(4, 0.3, 5)
		}},
		{"aiacgeneral-ring-mapped", wide, 6, func(cfg *Config) {
			cfg.Mode = AIACGeneral
			cfg.Detection = DetectRing
			cfg.Cluster = grid.HeteroGrid15(grid.HeteroGridConfig{Seed: 1})
			cfg.Mapping = grid.SiteOrderedMapping(cfg.Cluster)
			cfg.Tol, cfg.MaxTime = 1e-6, 30
		}},
		// 16 components over 3 ranks: 6, 5, 5 — a last component with no
		// partner to fuse with, and LB moving which one that is
		{"odd-owned-count-lb-faults", small, 3, func(cfg *Config) {
			cfg.Cluster = grid.Heterogeneous(3, 0.25, 7)
			cfg.LB = lb(5, 2)
			cfg.LBWarmup = 5
			cfg.Faults = &fault.Plan{Seed: 2, Msg: fault.Rates{Drop: 0.1, Dup: 0.1, Reorder: 0.1}, Kinds: FaultKindsData()}
		}},
		// two components a rank and MinKeep 1: ranges shrink to the halo
		// width, every owned component next to a halo on both sides
		{"halo-wide-ranges", small, 8, func(cfg *Config) {
			cfg.Cluster = grid.Heterogeneous(8, 0.15, 3)
			cfg.LB = lb(3, 1)
			cfg.LBWarmup = 3
		}},
		{"gauss-seidel-local-lb", small, 4, func(cfg *Config) {
			cfg.GaussSeidelLocal = true
			cfg.Cluster = grid.Heterogeneous(4, 0.25, 7)
			cfg.LB = lb(5, 2)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mk := func(prob iterative.Problem) Config {
				cfg := baseConfig(prob, tc.p)
				tc.mod(&cfg)
				return cfg
			}
			run := func(prob iterative.Problem) (goldenDigest, float64) {
				cfg := mk(prob)
				var tally skipTally
				cfg.skipTally = &tally
				d := runGolden(t, cfg)
				return d, float64(tally.frozen.Load()) / float64(max(tally.entries.Load(), 1))
			}
			raw, promised := run(tc.prob)
			hidden, hiddenPromised := run(hidePrefix(tc.prob))
			if raw != hidden {
				t.Errorf("digests with the extension %+v, without %+v", raw, hidden)
			}
			t.Logf("%.1f%% of trajectory entries promised frozen", 100*promised)
			// Not vacuous, and rule d and the adapter: nothing is promised
			// where nothing may be skipped.
			if jacobi := !mk(tc.prob).GaussSeidelLocal; (promised > 0.05) != jacobi || hiddenPromised != 0 {
				t.Errorf("promised frozen: %.3f with the extension (Jacobi sweeps: %v), %.3f without (want 0)", promised, jacobi, hiddenPromised)
			}
		})
	}
}

// TestTable1SweepSkipsFrozenPrefixes runs the benchmark's vt-table1 solve
// (bench/workloads.go, without the per-seed speed jitter) and reads the
// tally: a sweep that silently stops skipping — a count that is never raised,
// a promise that is never passed — changes no result and fails no other test.
// 37.8 % of entries is 36.6 % of time steps (the two initial-condition entries
// of a trajectory are frozen whenever anything is); bit-comparing every input
// of every step with the previous sweep's gives 36.7 % of steps, 38.0 % of
// entries, which no bookkeeping can exceed.
func TestTable1SweepSkipsFrozenPrefixes(t *testing.T) {
	p := brusselator.DefaultParams(120, 0.005)
	p.T = 0.25
	lb := loadbalance.DefaultPolicy()
	lb.Period, lb.MinKeep, lb.Smoothing = 20, 2, 0.2
	var tally skipTally
	res, err := Run(Config{
		Mode: AIAC, P: 15, Tol: 1e-6, MaxIter: 200000, MaxTime: 100000, LB: lb,
		Problem:   brusselator.New(p),
		Cluster:   grid.HeteroGrid15(grid.HeteroGridConfig{Seed: 100, MultiUser: true}),
		skipTally: &tally,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.TotalIters != 22628 {
		t.Fatalf("not the Table-1 solve: converged %v after %d iterations (want 22628)", res.Converged, res.TotalIters)
	}
	frozen, entries := tally.frozen.Load(), tally.entries.Load()
	share := float64(frozen) / float64(entries)
	t.Logf("%d of %d trajectory entries promised frozen: %.2f%%", frozen, entries, 100*share)
	if share < 0.37 || share > 0.38 {
		t.Errorf("%.2f%% of entries promised frozen, want 37–38 %%", 100*share)
	}
}
