package solver

import (
	"math"
	"testing"

	"aiac/internal/iterative"
)

// A 16-cell Brusselator on a 50-step window, swept Jacobi-fashion by the
// window kernel itself: the inputs of the tests and benchmarks below come
// from a real waveform iteration, because only there do frozen prefixes
// exist — trajectories that stopped moving to the bit front to back.
const (
	fixCells, fixSteps  = 16, 50
	fixDt, fixTol       = 0.02, 1e-10
	fixMaxIter, fixTraj = 25, 2 * (fixSteps + 1)
)

var fixC = (1.0 / 50.0) * (fixCells + 1) * (fixCells + 1)

// waveSweeps returns the state a sequential solve's sweep number `sweeps`
// reads (cells 1..fixCells between two constant boundary trajectories) and
// the state the sweep before it read.
func waveSweeps(tb testing.TB, sweeps int) (cur, prev [][]float64) {
	tb.Helper()
	mk := func() [][]float64 {
		s := make([][]float64, fixCells+2)
		for k := range s {
			s[k] = make([]float64, fixTraj)
			u := 1.0
			if k > 0 && k <= fixCells {
				u = 1 + math.Sin(2*math.Pi*float64(k)/float64(fixCells+1))
			}
			for i := 0; i < fixTraj; i += 2 {
				s[k][i], s[k][i+1] = u, 3
			}
		}
		return s
	}
	prev, cur = mk(), mk()
	next := mk()
	for s := 0; s < sweeps; s++ {
		for k := 1; k <= fixCells; k++ {
			if _, fail := BrussWindow(fixDt, fixC, fixTol, fixMaxIter, fixSteps, cur[k-1], cur[k+1], cur[k], next[k]); fail != 0 {
				tb.Fatalf("sweep %d: Newton failed at cell %d step %d", s, k, fail)
			}
		}
		prev, cur, next = cur, next, prev
	}
	return cur, prev
}

// frozenSteps is how many whole steps after the initial condition cell k may
// skip: everything its update reads is, that far, what the sweep before read.
func frozenSteps(cur, prev [][]float64, k int) int {
	f := fixTraj
	for i := k - 1; i <= k+1; i++ {
		f = min(f, iterative.CommonPrefix(cur[i], prev[i]))
	}
	return max(f/2-1, 0)
}

// TestBrussWindowFromMatchesFull pins the contract documented on
// BrussWindowFrom, on the inputs it is meant for — sweep 30 of a sequential
// solve, where about half of every trajectory no longer moves: from any
// prefix up to the true frozen one, the kernel returns the bits, the work and
// the quiet count of the full solve, alone and in either lane of a pair; and
// quiet is the leading run of steps a step-by-step Newton2Bruss solve returns
// unchanged after one evaluation.
func TestBrussWindowFromMatchesFull(t *testing.T) {
	cur, prev := waveSweeps(t, 30)
	full := make([][]float64, fixCells+2)
	work := make([]float64, fixCells+2)
	quiet := make([]int, fixCells+2)
	longest := 0
	for k := 1; k <= fixCells; k++ {
		full[k] = make([]float64, fixTraj)
		full[k][0], full[k][1] = cur[k][0], cur[k][1]
		var fail int
		work[k], quiet[k], fail = BrussWindowFrom(fixDt, fixC, fixTol, fixMaxIter, fixSteps, 0, cur[k-1], cur[k+1], cur[k], full[k])
		if fail != 0 {
			t.Fatalf("cell %d: Newton failed at step %d", k, fail)
		}
		// quiet against the stepwise count
		stepQuiet := 0
		for s := 1; s <= fixSteps; s++ {
			i := 2 * s
			u, v, iters, ok := Newton2Bruss(fixDt, fixC, full[k][i-2], full[k][i-1],
				cur[k-1][i], cur[k-1][i+1], cur[k+1][i], cur[k+1][i+1], cur[k][i], cur[k][i+1], fixTol, fixMaxIter)
			if !ok || iters != 1 {
				break
			}
			if u != cur[k][i] || v != cur[k][i+1] {
				t.Fatalf("cell %d step %d: one evaluation, yet the warm start moved", k, s)
			}
			stepQuiet = s
		}
		if quiet[k] != stepQuiet {
			t.Errorf("cell %d: quiet %d, stepwise %d", k, quiet[k], stepQuiet)
		}
		f := frozenSteps(cur, prev, k)
		if quiet[k] < f {
			t.Errorf("cell %d: %d steps frozen but only %d quiet", k, f, quiet[k])
		}
		longest = max(longest, f)
	}
	if longest < fixSteps/4 || longest == fixSteps {
		t.Fatalf("vacuous fixture: longest frozen prefix %d of %d steps", longest, fixSteps)
	}

	outA, outB := make([]float64, fixTraj), make([]float64, fixTraj)
	check := func(what string, k, from int, out []float64, w float64, q, fail int) {
		t.Helper()
		if fail != 0 || w != work[k] || q != quiet[k] || iterative.CommonPrefix(out, full[k]) != fixTraj {
			t.Errorf("%s cell %d from %d: fail %d work %g (full %g) quiet %d (full %d), out differs at entry %d",
				what, k, from, fail, w, work[k], q, quiet[k], iterative.CommonPrefix(out, full[k]))
		}
	}
	for k := 1; k <= fixCells; k++ {
		f := frozenSteps(cur, prev, k)
		for _, from := range []int{0, min(1, f), f / 2, f} {
			clear(outA)
			outA[0], outA[1] = cur[k][0], cur[k][1]
			w, q, fail := BrussWindowFrom(fixDt, fixC, fixTol, fixMaxIter, fixSteps, from, cur[k-1], cur[k+1], cur[k], outA)
			check("solo", k, from, outA, w, q, fail)
		}
		if k == fixCells {
			break
		}
		// a pair skips what both of its cells may skip, whichever lane they ride
		f = min(f, frozenSteps(cur, prev, k+1))
		for _, from := range []int{0, f / 2, f} {
			for _, ab := range [][2]int{{k, k + 1}, {k + 1, k}} {
				a, b := ab[0], ab[1]
				clear(outA)
				clear(outB)
				outA[0], outA[1], outB[0], outB[1] = cur[a][0], cur[a][1], cur[b][0], cur[b][1]
				wA, wB, qA, qB, failA, failB := BrussWindowPairFrom(fixDt, fixC, fixTol, fixMaxIter, fixSteps, from,
					cur[a-1], cur[a+1], cur[a], outA, cur[b-1], cur[b+1], cur[b], outB)
				check("pair lane A", a, from, outA, wA, qA, failA)
				check("pair lane B", b, from, outB, wB, qB, failB)
			}
		}
	}
}

// TestBrussWindowFromResumesActive is the case a self-freezing front never
// produces (the steps behind it are quiet, and skipping one too many of
// those changes nothing): a neighbour that changed halfway along, as a halo
// message does — a frozen half, then steps that need several evaluations
// from the very first one solved.
func TestBrussWindowFromResumesActive(t *testing.T) {
	cur, _ := waveSweeps(t, 60) // the fixed point: everything frozen
	const k, from = fixCells / 2, fixSteps / 2
	right := append([]float64(nil), cur[k+1]...)
	for i := 2 * (from + 1); i < fixTraj; i++ {
		right[i] *= 1.01
	}
	full, out := make([]float64, fixTraj), make([]float64, fixTraj)
	full[0], full[1], out[0], out[1] = cur[k][0], cur[k][1], cur[k][0], cur[k][1]
	wFull, qFull, fail := BrussWindowFrom(fixDt, fixC, fixTol, fixMaxIter, fixSteps, 0, cur[k-1], right, cur[k], full)
	if fail != 0 || qFull != from || wFull < fixSteps+from {
		t.Fatalf("vacuous: fail %d, quiet %d (want %d), work %g", fail, qFull, from, wFull)
	}
	w, q, fail := BrussWindowFrom(fixDt, fixC, fixTol, fixMaxIter, fixSteps, from, cur[k-1], right, cur[k], out)
	if fail != 0 || w != wFull || q != qFull || iterative.CommonPrefix(out, full) != fixTraj {
		t.Errorf("solo from %d: fail %d work %g (full %g) quiet %d (full %d), out differs at entry %d",
			from, fail, w, wFull, q, qFull, iterative.CommonPrefix(out, full))
	}
	// fused with its left neighbour, which nothing touched, in either lane
	other := make([]float64, fixTraj)
	for _, lane := range []int{0, 1} {
		clear(out)
		out[0], out[1], other[0], other[1] = cur[k][0], cur[k][1], cur[k-1][0], cur[k-1][1]
		if lane == 0 {
			w, _, q, _, fail, _ = BrussWindowPairFrom(fixDt, fixC, fixTol, fixMaxIter, fixSteps, from,
				cur[k-1], right, cur[k], out, cur[k-2], cur[k], cur[k-1], other)
		} else {
			_, w, _, q, _, fail = BrussWindowPairFrom(fixDt, fixC, fixTol, fixMaxIter, fixSteps, from,
				cur[k-2], cur[k], cur[k-1], other, cur[k-1], right, cur[k], out)
		}
		if fail != 0 || w != wFull || q != qFull || iterative.CommonPrefix(out, full) != fixTraj {
			t.Errorf("pair lane %d from %d: fail %d work %g (full %g) quiet %d (full %d), out differs at entry %d",
				lane, from, fail, w, wFull, q, qFull, iterative.CommonPrefix(out, full))
		}
		if iterative.CommonPrefix(other, cur[k-1]) != fixTraj {
			t.Errorf("pair lane %d: the untouched cell moved at entry %d", lane, iterative.CommonPrefix(other, cur[k-1]))
		}
	}
}

// TestBrussWindowFromRejectsBadPrefix: a from outside the window is a caller
// bug, not something to clamp.
func TestBrussWindowFromRejectsBadPrefix(t *testing.T) {
	tr := make([]float64, fixTraj)
	for _, from := range []int{-1, fixSteps + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("from %d: expected panic", from)
				}
			}()
			BrussWindowFrom(fixDt, fixC, fixTol, fixMaxIter, fixSteps, from, tr, tr, tr, make([]float64, fixTraj))
		}()
	}
}

// BenchmarkBrussWindowPair reports the fused kernel's cost per cell-step in
// the three regimes a sweep meets, on neighbouring cells of a real solve:
// active (sweep 3: every step needs several Newton evaluations), quiet (the
// fixed point solved in full: one evaluation a step, the warm start returned)
// and frozen (the fixed point with every step promised: a copy).
func BenchmarkBrussWindowPair(b *testing.B) {
	for _, bc := range []struct {
		name         string
		sweeps, from int
	}{
		{"active", 3, 0},
		{"quiet", 60, 0},
		{"frozen", 60, fixSteps},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cur, prev := waveSweeps(b, bc.sweeps)
			const k = fixCells / 2
			if f := min(frozenSteps(cur, prev, k), frozenSteps(cur, prev, k+1)); bc.from > f {
				b.Fatalf("fixture froze %d steps, benchmark promises %d", f, bc.from)
			}
			outA, outB := make([]float64, fixTraj), make([]float64, fixTraj)
			outA[0], outA[1], outB[0], outB[1] = cur[k][0], cur[k][1], cur[k+1][0], cur[k+1][1]
			var work float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wA, wB, _, _, _, _ := BrussWindowPairFrom(fixDt, fixC, fixTol, fixMaxIter, fixSteps, bc.from,
					cur[k-1], cur[k+1], cur[k], outA, cur[k], cur[k+2], cur[k+1], outB)
				work = wA + wB
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*fixSteps), "ns/cell-step")
			b.ReportMetric(work/(2*fixSteps), "evals/cell-step")
		})
	}
}
