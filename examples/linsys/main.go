// Linsys solves a banded, diagonally dominant linear system A·x = b with the
// asynchronous solver — the paper's generic claim (§5: the AIAC scheme
// applies to "either linear or non-linear systems which can be stationary or
// not") made concrete through the public extension point alone: the system
// implements aiac.Problem itself, one unknown per component, halo = matrix
// bandwidth, and is solved by asynchronous Jacobi relaxation. Strict
// diagonal dominance makes the iteration a max-norm contraction, hence
// convergent under total asynchronism (Bertsekas–Tsitsiklis).
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"aiac"
)

// bw is the matrix bandwidth: the system is pentadiagonal.
const bw = 2

// bandSystem is A·x = b with A stored by diagonals: a[i][k+bw] is the entry
// at (i, i+k). Entries outside the matrix are zero and never read.
type bandSystem struct {
	a [][2*bw + 1]float64
	b []float64
}

var _ aiac.Problem = (*bandSystem)(nil)

// newSystem draws a random, strictly diagonally dominant n-unknown system.
func newSystem(n int, seed int64) *bandSystem {
	rng := rand.New(rand.NewSource(seed))
	s := &bandSystem{a: make([][2*bw + 1]float64, n), b: make([]float64, n)}
	for i := 0; i < n; i++ {
		off := 0.0
		for d := 1; d <= bw; d++ {
			if i-d >= 0 {
				s.a[i][bw-d] = rng.NormFloat64()
				off += math.Abs(s.a[i][bw-d])
			}
			if i+d < n {
				s.a[i][bw+d] = rng.NormFloat64()
				off += math.Abs(s.a[i][bw+d])
			}
		}
		s.a[i][bw] = off + 1 + rng.Float64() // strictly dominant
		s.b[i] = rng.NormFloat64()
	}
	return s
}

func (s *bandSystem) Components() int    { return len(s.b) }
func (s *bandSystem) TrajLen() int       { return 1 }
func (s *bandSystem) Halo() int          { return bw }
func (s *bandSystem) Init(int) []float64 { return []float64{0} }

// Update is one Jacobi relaxation of unknown j; its work is the row's
// number of stored entries.
func (s *bandSystem) Update(j int, _ []float64, get func(i int) []float64, out []float64) float64 {
	sum, stored := s.b[j], 1
	for k := -bw; k <= bw; k++ {
		if c := j + k; k != 0 && c >= 0 && c < len(s.b) {
			sum -= s.a[j][k+bw] * get(c)[0]
			stored++
		}
	}
	out[0] = sum / s.a[j][bw]
	return float64(stored)
}

// residual returns ‖b − A·x‖∞ for a solved state.
func (s *bandSystem) residual(state [][]float64) float64 {
	worst := 0.0
	for i := range s.b {
		ax := 0.0
		for k := -bw; k <= bw; k++ {
			if c := i + k; c >= 0 && c < len(s.b) {
				ax += s.a[i][k+bw] * state[c][0]
			}
		}
		worst = math.Max(worst, math.Abs(s.b[i]-ax))
	}
	return worst
}

// solve runs the balanced AIAC solve on an 8-node heterogeneous cluster.
func solve(s *bandSystem) (*aiac.Result, error) {
	return aiac.Solve(aiac.Config{
		Mode:    aiac.AIAC,
		P:       8,
		Problem: s,
		Cluster: aiac.Heterogeneous(8, 0.4, 9),
		Tol:     1e-12,
		MaxIter: 1000000,
		LB:      aiac.DefaultLBPolicy(),
		Seed:    1,
	})
}

func main() {
	const n = 200
	sys := newSystem(n, 42)
	res, err := solve(sys)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("asynchronous Jacobi on a %d-unknown pentadiagonal system\n", n)
	fmt.Printf("converged: %v in %.3f virtual seconds (%d total iterations)\n",
		res.Converged, res.Time, res.TotalIters)
	fmt.Printf("final residual ‖b−Ax‖∞ = %.3g\n", sys.residual(res.State))
	fmt.Printf("components migrated by the balancer: %d (final split %v)\n",
		res.LBCompsMoved, res.FinalCount)
}
