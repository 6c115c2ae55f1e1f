// Poisson2d solves the 2-D Poisson equation −Δu = f on the unit square by
// asynchronous Jacobi iteration with a row-block decomposition, using the
// fully decentralized ring convergence detector (no coordinator process at
// all) and the telemetry sink's per-sweep samples to show how components
// migrate between nodes under load balancing.
package main

import (
	"fmt"
	"log"
	"math"

	"aiac"
)

func main() {
	pp := aiac.Poisson2DParams{N: 48}
	prob := aiac.NewPoisson2D(pp)

	const maxIter = 500000
	sink := &aiac.MetricsSink{Cap: maxIter + 1} // above any sweep count: never thins
	res, err := aiac.Solve(aiac.Config{
		Mode:      aiac.AIAC,
		P:         6,
		Problem:   prob,
		Cluster:   aiac.Heterogeneous(6, 0.3, 17),
		Tol:       1e-9,
		MaxIter:   maxIter,
		Detection: aiac.DetectRing, // decentralized Safra-style detection
		LB:        aiac.DefaultLBPolicy(),
		Metrics:   sink,
		Seed:      4,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("2-D Poisson (%dx%d grid) on 6 heterogeneous nodes\n", pp.N, pp.N)
	fmt.Printf("converged: %v in %.3f virtual seconds (ring detection, no coordinator)\n",
		res.Converged, res.Time)

	// accuracy against the manufactured exact solution sin(πx)sin(πy)
	worst := 0.0
	for i := 0; i < pp.N; i++ {
		for j := 0; j < pp.N; j++ {
			worst = math.Max(worst, math.Abs(res.State[i][j]-pp.Exact(i+1, j+1)))
		}
	}
	h := 1 / float64(pp.N+1)
	fmt.Printf("max error vs exact solution: %.3g (O(h²) bound ≈ %.3g)\n",
		worst, 2*math.Pi*math.Pi*h*h)

	// show the row migration the balancer performed: every 25th sweep
	counts := make([][]int, sink.Nodes())
	for r := range counts {
		for _, sm := range sink.Samples(r) {
			if sm.Iter%25 == 0 {
				counts[r] = append(counts[r], sm.Count)
			}
		}
	}
	fmt.Println("\nrow ownership over time (sampled every 25 iterations):")
	fmt.Printf("%8s", "node:")
	for r := range counts {
		fmt.Printf("%6d", r)
	}
	fmt.Println()
	maxLen := 0
	for _, row := range counts {
		if len(row) > maxLen {
			maxLen = len(row)
		}
	}
	for s := 0; s < maxLen; s += max(1, maxLen/8) {
		fmt.Printf("%7d ", s*25)
		for _, row := range counts {
			if s < len(row) {
				fmt.Printf("%6d", row[s])
			} else {
				fmt.Printf("%6s", "-")
			}
		}
		fmt.Println()
	}
	fmt.Printf("%8s", "final:")
	for _, c := range res.FinalCount {
		fmt.Printf("%6d", c)
	}
	fmt.Println()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
