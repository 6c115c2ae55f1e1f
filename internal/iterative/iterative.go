// Package iterative defines the block-component fixed-point problem
// abstraction shared by the sequential and parallel (SISC/SIAC/AIAC)
// solvers.
//
// Following the paper (§1.1, §5), the global state is a vector of
// "spatial components". Each component owns a trajectory (its values over
// the whole discretized time window — length 1 for stationary problems),
// and one sweep of the iterative algorithm recomputes a component's
// trajectory from the previous-iteration trajectories of its neighbors
// within a fixed halo distance. The solvers own distribution, messaging,
// convergence detection and load balancing; the Problem owns the math.
package iterative

import (
	"errors"
	"fmt"

	"aiac/internal/linalg"
)

// Problem is a block-decomposable fixed-point problem x = g(x) over
// component trajectories.
type Problem interface {
	// Components returns the number of spatial components (2N for the
	// Brusselator: the interleaved u and v values).
	Components() int
	// TrajLen returns the number of time points per component trajectory
	// (1 for stationary problems such as linear system solves).
	TrajLen() int
	// Halo returns how many components on each side a component update
	// depends on (2 for the Brusselator).
	Halo() int
	// Init returns the initial trajectory of component j (the waveform
	// initial guess; entry 0 is the initial condition for evolution
	// problems) in a fresh slice: the engine keeps it and later overwrites it.
	Init(j int) []float64
	// Update recomputes component j into out (len TrajLen), given its own
	// previous trajectory `old` and an accessor for neighbor trajectories.
	// get(i) is valid for 0 <= i < Components() with 0 < |i-j| <= Halo();
	// the problem substitutes boundary conditions for out-of-domain
	// neighbors itself. It returns the work performed in abstract units
	// (Newton iterations for nonlinear problems).
	Update(j int, old []float64, get func(i int) []float64, out []float64) (work float64)
}

// PairUpdater is an optional Problem extension. Problems whose component
// updates are independent within one sweep (Jacobi reads: get serves the
// previous iterate) may update two components in a single fused call,
// letting the implementation interleave two independent inner solves for
// instruction-level parallelism. UpdatePair must be observationally
// identical to Update(j1) followed by Update(j2): bit-identical outputs
// and work values. Engines only use it when their neighbor accessor is
// Jacobi (e.g. not under local Gauss-Seidel, where j2 must observe j1's
// fresh trajectory).
type PairUpdater interface {
	UpdatePair(j1, j2 int, old1, old2 []float64, get func(i int) []float64, out1, out2 []float64) (w1, w2 float64)
}

// Residual is the per-component convergence measure used throughout: the
// max-norm distance between successive iterates of a trajectory.
func Residual(old, new []float64) float64 {
	return linalg.MaxAbsDiff(old, new)
}

// ErrMaxIter is returned by SolveSequential when the sweep budget is
// exhausted before reaching the tolerance.
var ErrMaxIter = errors.New("iterative: maximum iterations reached")

// SeqResult is the outcome of a sequential waveform solve.
type SeqResult struct {
	// State[j] is the converged trajectory of component j.
	State [][]float64
	// Iterations is the number of full Jacobi sweeps performed.
	Iterations int
	// Work is the cumulative work units over all sweeps.
	Work float64
	// ResidualHistory records the max component residual after each sweep.
	ResidualHistory []float64
}

// SolveSequential runs synchronous Jacobi waveform sweeps over all
// components until every component residual drops below tol. It is the
// single-processor baseline (the fixed point the parallel engines must
// reproduce) and the driver used by problem unit tests.
func SolveSequential(p Problem, tol float64, maxIter int) (*SeqResult, error) {
	m := p.Components()
	if m == 0 {
		return nil, errors.New("iterative: problem has no components")
	}
	if tol <= 0 {
		panic("iterative: tol must be positive")
	}
	if maxIter <= 0 {
		panic("iterative: maxIter must be positive")
	}
	old := make([][]float64, m)
	cur := make([][]float64, m)
	for j := 0; j < m; j++ {
		old[j] = p.Init(j)
		if len(old[j]) != p.TrajLen() {
			panic(fmt.Sprintf("iterative: Init(%d) returned length %d, want %d", j, len(old[j]), p.TrajLen()))
		}
		cur[j] = make([]float64, p.TrajLen())
	}
	get := func(i int) []float64 { return old[i] }
	res := &SeqResult{}
	for res.Iterations = 1; res.Iterations <= maxIter; res.Iterations++ {
		maxRes := 0.0
		for j := 0; j < m; j++ {
			res.Work += p.Update(j, old[j], get, cur[j])
			if r := Residual(old[j], cur[j]); r > maxRes {
				maxRes = r
			}
		}
		old, cur = cur, old
		res.ResidualHistory = append(res.ResidualHistory, maxRes)
		if maxRes < tol {
			res.State = old
			return res, nil
		}
	}
	res.Iterations = maxIter
	res.State = old
	return res, fmt.Errorf("%w (%d sweeps, residual %.3g > %.3g)",
		ErrMaxIter, maxIter, res.ResidualHistory[len(res.ResidualHistory)-1], tol)
}

// CheckProblem validates basic Problem invariants (used by tests and by the
// engines at startup): positive sizes, Init lengths, and that Update only
// accesses neighbors within the declared halo.
func CheckProblem(p Problem) error {
	if p.Components() <= 0 {
		return errors.New("iterative: Components() must be positive")
	}
	if p.TrajLen() <= 0 {
		return errors.New("iterative: TrajLen() must be positive")
	}
	if p.Halo() < 0 {
		return errors.New("iterative: Halo() must be non-negative")
	}
	m, h := p.Components(), p.Halo()
	for _, j := range []int{0, m / 2, m - 1} {
		init := p.Init(j)
		if len(init) != p.TrajLen() {
			return fmt.Errorf("iterative: Init(%d) length %d != TrajLen %d", j, len(init), p.TrajLen())
		}
		out := make([]float64, p.TrajLen())
		var badAccess error
		get := func(i int) []float64 {
			if i < 0 || i >= m {
				badAccess = fmt.Errorf("iterative: Update(%d) accessed out-of-domain component %d", j, i)
				return make([]float64, p.TrajLen())
			}
			if d := i - j; d == 0 || d > h || d < -h {
				badAccess = fmt.Errorf("iterative: Update(%d) accessed component %d outside halo %d", j, i, h)
			}
			return p.Init(i)
		}
		p.Update(j, init, get, out)
		if badAccess != nil {
			return badAccess
		}
	}
	return nil
}
