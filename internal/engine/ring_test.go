package engine

import (
	"math"
	"testing"

	"aiac/internal/brusselator"
	"aiac/internal/grid"
	"aiac/internal/loadbalance"
	"aiac/internal/poisson"
	"aiac/internal/rtime"
)

// TestRingDetectionSolves runs the decentralized detector end to end and
// checks agreement with the centralized one.
func TestRingDetectionSolves(t *testing.T) {
	prob, params := smallBruss()
	ref, _, err := brusselator.Reference(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{SIAC, AIACGeneral, AIAC} {
		cfg := baseConfig(prob, 4)
		cfg.Mode = mode
		cfg.Detection = DetectRing
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !res.Converged {
			t.Fatalf("%s: ring detection did not converge", mode)
		}
		if d := maxDiffVsRef(t, res.State, ref); d > 1e-4 {
			t.Fatalf("%s: solution off by %g", mode, d)
		}
	}
}

func TestRingDetectionWithLB(t *testing.T) {
	prob, params := smallBruss()
	ref, _, err := brusselator.Reference(params)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(prob, 4)
	cfg.Cluster = grid.Heterogeneous(4, 0.3, 5)
	cfg.Detection = DetectRing
	cfg.LB = loadbalance.DefaultPolicy()
	cfg.LB.Period = 5
	cfg.LB.MinKeep = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if d := maxDiffVsRef(t, res.State, ref); d > 1e-4 {
		t.Fatalf("solution off by %g", d)
	}
}

func TestRingDetectionSingleNode(t *testing.T) {
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 1)
	cfg.Detection = DetectRing
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("single-node ring did not converge")
	}
	// Its own stable convergence halts it: it must not run on to MaxIter.
	if res.NodeIters[0] >= cfg.MaxIter {
		t.Fatalf("single-node ring ran %d iterations, to its bound", res.NodeIters[0])
	}
}

func TestRingDetectionAbort(t *testing.T) {
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 4)
	cfg.Detection = DetectRing
	cfg.Tol = 1e-300
	cfg.MaxIter = 30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("cannot have converged at 1e-300")
	}
}

func TestRingDetectionRejectsSISC(t *testing.T) {
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 4)
	cfg.Mode = SISC
	cfg.Detection = DetectRing
	if err := cfg.Validate(); err == nil {
		t.Fatal("SISC + ring must be rejected")
	}
}

func TestRingDetectionOnRealRuntime(t *testing.T) {
	pp := poisson.Params{N: 32}
	prob := poisson.New(pp)
	cfg := baseConfig(prob, 4)
	cfg.Detection = DetectRing
	cfg.Tol = 1e-10
	cfg.MaxIter = 200000
	cfg.Runner = rtime.Runner{Speedup: 100}
	cfg.MaxTime = 600
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("ring on rtime did not converge")
	}
	for i := 0; i < pp.N; i++ {
		if d := math.Abs(res.State[i][0] - pp.Exact(i+1)); d > 1e-6 {
			t.Fatalf("point %d off by %g", i, d)
		}
	}
}

func TestDetectionString(t *testing.T) {
	for _, d := range []Detection{DetectCentral, DetectRing, Detection(7)} {
		if d.String() == "" {
			t.Fatal("empty detection name")
		}
	}
}
