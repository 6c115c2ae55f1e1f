package main

import (
	"math"
	"testing"

	"aiac/internal/iterative"
	"aiac/internal/linalg"
)

// TestSolvesAgainstDenseLU runs the example's balanced asynchronous solve and
// checks it against the residual and a dense LU solve of the same system.
func TestSolvesAgainstDenseLU(t *testing.T) {
	const n = 200
	sys := newSystem(n, 42)
	res, err := solve(sys)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if r := sys.residual(res.State); r > 1e-10 {
		t.Fatalf("‖b−Ax‖∞ = %g, want <= 1e-10", r)
	}
	if res.LBCompsMoved < 1 {
		t.Fatal("the balancer moved no component")
	}

	d := linalg.NewDense(n)
	for i := 0; i < n; i++ {
		for k := -bw; k <= bw; k++ {
			if c := i + k; c >= 0 && c < n {
				d.Set(i, c, sys.a[i][k+bw])
			}
		}
	}
	x, err := linalg.SolveDense(d, sys.b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if diff := math.Abs(res.State[i][0] - x[i]); diff > 1e-9 {
			t.Fatalf("unknown %d: jacobi %g vs LU %g", i, res.State[i][0], x[i])
		}
	}
}

// TestHaloIsBandwidth checks the example's Problem against the interface's
// contract: halo = bandwidth, and the sequential sweep conformance checks.
func TestHaloIsBandwidth(t *testing.T) {
	sys := newSystem(24, 3)
	if sys.Halo() != bw {
		t.Fatalf("halo = %d, want the bandwidth %d", sys.Halo(), bw)
	}
	if err := iterative.CheckProblem(sys); err != nil {
		t.Fatal(err)
	}
}
