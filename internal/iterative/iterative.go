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
	"math"

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

// PrefixUpdater is an optional Problem extension for problems whose update
// is causal along the trajectory. Cut a trajectory into the problem's own
// units — a time step: one entry, or the few that are solved together — and
// unit t of out is a function of units <= t of old and of the neighbour
// trajectories, and of nothing else that changes between calls (waveform
// relaxation over a time window: a time step reads nothing later than
// itself). For such a problem a prefix that cannot have changed need not be
// recomputed.
//
// UpdateFrom is Update with a promise attached. The caller promises that old
// is what the previous update of component j produced, and that the first
// `from` entries of what that update read — its own old and every neighbour
// trajectory get serves — are bit-identical to the first `from` entries read
// now. Every leading unit that lies wholly inside those entries then comes
// out as that update left it, which is old, and the implementation may copy
// it instead of computing it. Whatever it skips, out and work must be
// bit-identical to Update's: the skipped units are charged exactly what
// recomputing them would have cost. from = 0 promises nothing, is always
// legal, and is Update.
//
// quiet reports how many leading entries of out are bit-identical to old:
// never more than is true, and a lower bound is always safe. It is what lets
// the caller make the promise for the neighbours of j on the next sweep.
// Both counts are in trajectory entries, so that the caller need not know
// the problem's unit; the problem rounds down to whole units.
//
// UpdatePairFrom is PairUpdater.UpdatePair with one promise per component,
// and must equal UpdateFrom(j1, from1) followed by UpdateFrom(j2, from2) in
// every output, under the same Jacobi condition.
//
// CheckProblem exercises all of this on a problem that has the extension.
type PrefixUpdater interface {
	UpdateFrom(j, from int, old []float64, get func(i int) []float64, out []float64) (work float64, quiet int)
	UpdatePairFrom(j1, j2, from1, from2 int, old1, old2 []float64, get func(i int) []float64, out1, out2 []float64) (w1, w2 float64, quiet1, quiet2 int)
}

// Residual is the per-component convergence measure used throughout: the
// max-norm distance between successive iterates of a trajectory.
func Residual(old, new []float64) float64 {
	return linalg.MaxAbsDiff(old, new)
}

// CommonPrefix returns how many leading entries of a and b hold the same
// bits. It compares math.Float64bits, not values: a PrefixUpdater promise is
// about the operands an update will see, and == calls −0 and +0 equal (they
// divide differently) and a NaN unequal to itself.
func CommonPrefix(a, b []float64) int {
	n := min(len(a), len(b))
	b = b[:n]
	for i, x := range a[:n] {
		if math.Float64bits(x) != math.Float64bits(b[i]) {
			return i
		}
	}
	return n
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

// CheckProblem validates basic Problem invariants (every bundled problem's
// tests run it): positive sizes, Init lengths, that Update only accesses
// neighbors within the declared halo, and — for a problem that has it — the
// PrefixUpdater contract.
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
	if pu, ok := p.(PrefixUpdater); ok {
		return checkPrefix(p, pu)
	}
	return nil
}

// prefixSweeps bounds checkPrefix's iteration. A waveform iteration started
// at Init moves every entry after the initial condition for tens of sweeps
// before its first steps freeze to the bit, so a handful of sweeps would
// only ever test from = 0.
const prefixSweeps = 150

// checkPrefix runs sequential Jacobi sweeps the way an engine would — but
// with every promise computed from the data: from is the true bitwise common
// prefix of what this sweep and the previous one read around a component. On
// sampled components, at that prefix, at shorter ones and at 0, alone and
// fused with the next component in both orders, the extension must reproduce
// Update in out and work, report the same quiet for every from, and never
// report an entry quiet that moved. It sweeps until nothing moves (near a
// front that freezes by itself the steps behind it are quiet, and skipping
// one too many shows in no output), then changes one neighbour of each
// sampled pair halfway along: a frozen half followed by a live one.
func checkPrefix(p Problem, pu PrefixUpdater) error {
	m, h, n := p.Components(), p.Halo(), p.TrajLen()
	cur := make([][]float64, m)  // what this sweep reads
	next := make([][]float64, m) // what Update makes of it: the reference
	work := make([]float64, m)
	same := make([]int, m)  // leading entries of cur[i] the previous sweep read too; 0 before any sweep
	quiet := make([]int, m) // UpdateFrom(i, 0)'s report, sampled components only
	for i := range cur {
		cur[i], next[i] = p.Init(i), make([]float64, n)
	}
	get := func(i int) []float64 { return cur[i] }
	out1, out2 := make([]float64, n), make([]float64, n)
	// promise is the longest from an engine may hand the update of j.
	promise := func(j int) int {
		f := n
		for i := max(j-h, 0); i <= min(j+h, m-1); i++ {
			f = min(f, same[i])
		}
		return f
	}
	agree := func(what string, j, from int, out []float64, w float64, q int) error {
		switch {
		case CommonPrefix(out, next[j]) != n:
			return fmt.Errorf("iterative: %s(%d, from %d) differs from Update at entry %d", what, j, from, CommonPrefix(out, next[j]))
		case w != work[j]:
			return fmt.Errorf("iterative: %s(%d, from %d) charged work %g, Update %g", what, j, from, w, work[j])
		case q != quiet[j]:
			return fmt.Errorf("iterative: %s(%d, from %d) reported quiet %d, from 0 reported %d", what, j, from, q, quiet[j])
		}
		return nil
	}
	// solo checks component j, whose reference is in next and work, at every
	// from a caller might pass.
	solo := func(j int) error {
		var w float64
		w, quiet[j] = pu.UpdateFrom(j, 0, cur[j], get, out1)
		if moved := CommonPrefix(cur[j], next[j]); quiet[j] < 0 || quiet[j] > moved {
			return fmt.Errorf("iterative: UpdateFrom(%d) reported quiet %d, but out leaves old at entry %d", j, quiet[j], moved)
		}
		err := agree("UpdateFrom", j, 0, out1, w, quiet[j])
		f := promise(j)
		for _, from := range []int{min(1, f), f / 2, f} {
			w, q := pu.UpdateFrom(j, from, cur[j], get, out1)
			err = errors.Join(err, agree("UpdateFrom", j, from, out1, w, q))
		}
		return err
	}
	// pair checks j and j+1 alone, then fused in both orders: a promise
	// belongs to its component, not to a lane.
	pair := func(j int) error {
		err := errors.Join(solo(j), solo(j+1))
		f1, f2 := promise(j), promise(j+1)
		for _, f := range [][2]int{{0, 0}, {min(1, f1), min(1, f2)}, {f1 / 2, f2 / 2}, {f1, f2}} {
			w1, w2, q1, q2 := pu.UpdatePairFrom(j, j+1, f[0], f[1], cur[j], cur[j+1], get, out1, out2)
			err = errors.Join(err, agree("UpdatePairFrom", j, f[0], out1, w1, q1), agree("UpdatePairFrom", j+1, f[1], out2, w2, q2))
			w2, w1, q2, q1 = pu.UpdatePairFrom(j+1, j, f[1], f[0], cur[j+1], cur[j], get, out2, out1)
			err = errors.Join(err, agree("UpdatePairFrom", j, f[0], out1, w1, q1), agree("UpdatePairFrom", j+1, f[1], out2, w2, q2))
		}
		return err
	}
	sample := [3]int{0, (m - 1) / 2, max(m-2, 0)} // the pairs (j, j+1)
	check := pair
	if m == 1 {
		check = solo
	}
	full := false // nothing moved: every promise of the coming sweep is the whole trajectory
	for sweep := 0; sweep < prefixSweeps && !full; sweep++ {
		for j := 0; j < m; j++ {
			work[j] = p.Update(j, cur[j], get, next[j])
		}
		for _, j := range sample {
			if err := check(j); err != nil {
				return err
			}
		}
		full = true
		for i := range cur {
			same[i] = CommonPrefix(cur[i], next[i])
			full = full && same[i] == n
		}
		cur, next = next, cur
	}
	for _, j := range sample {
		// the nearest component only one of the pair reads
		i := j + 1 + h
		if i >= m {
			i = j - h
		}
		if m == 1 || i < 0 {
			continue // fewer than halo+2 components: no pair, or no such neighbour
		}
		kept, keptSame := append([]float64(nil), cur[i]...), same[i]
		for t := n / 2; t < n; t++ {
			cur[i][t] += 1e-3 * (1 + math.Abs(cur[i][t]))
		}
		same[i] = min(same[i], n/2)
		work[j] = p.Update(j, cur[j], get, next[j])
		work[j+1] = p.Update(j+1, cur[j+1], get, next[j+1])
		if err := pair(j); err != nil {
			return err
		}
		copy(cur[i], kept)
		same[i] = keptSame
	}
	return nil
}
