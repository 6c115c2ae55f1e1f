package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDense(rng *rand.Rand, n int) *Dense {
	m := NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
		m.Add(i, i, float64(n)) // keep comfortably nonsingular
	}
	return m
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, -2, 3}
	b := []float64{1, 1, 1}
	if got := MaxAbsDiff(a, b); got != 3 {
		t.Errorf("MaxAbsDiff = %g", got)
	}
	if got := NormInf(a); got != 3 {
		t.Errorf("NormInf = %g", got)
	}
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Errorf("Norm2 = %g", got)
	}
	if got := Dot(a, b); got != 2 {
		t.Errorf("Dot = %g", got)
	}
	y := Clone(b)
	Axpy(2, a, y)
	if y[0] != 3 || y[1] != -3 || y[2] != 7 {
		t.Errorf("Axpy = %v", y)
	}
	Fill(y, 9)
	if y[0] != 9 || y[2] != 9 {
		t.Errorf("Fill = %v", y)
	}
}

func TestVectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	MaxAbsDiff([]float64{1}, []float64{1, 2})
}

func TestDenseLUKnown(t *testing.T) {
	// simple 3x3 with known solution
	m := NewDense(3)
	rows := [][]float64{{2, 1, 0}, {1, 3, 1}, {0, 1, 4}}
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	x, err := SolveDense(m, []float64{3, 9, 14})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.55, 1.9, 3.025}
	// verify by residual instead of hand-solving precisely
	res := make([]float64, 3)
	m.MulVec(x, res)
	if MaxAbsDiff(res, []float64{3, 9, 14}) > 1e-12 {
		t.Fatalf("residual too large; x=%v want~%v", x, want)
	}
}

func TestDenseLUSingular(t *testing.T) {
	m := NewDense(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := m.Factor(); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestDenseLUNeedsPivoting(t *testing.T) {
	// zero on the leading diagonal forces a row swap
	m := NewDense(2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 1)
	x, err := SolveDense(m, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-14 || math.Abs(x[1]-1) > 1e-14 {
		t.Fatalf("x = %v, want [2 1]", x)
	}
}

func TestDenseLUProperty(t *testing.T) {
	// Pivoted LU is backward stable: check the residual of the computed
	// solution relative to ||A||·||x̂|| (forward error can blow up for
	// occasionally ill-conditioned random draws).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		m := randDense(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		m.MulVec(x, b)
		got, err := SolveDense(m, b)
		if err != nil {
			return false
		}
		res := make([]float64, n)
		m.MulVec(got, res)
		normA := 0.0
		for i := 0; i < n; i++ {
			row := 0.0
			for j := 0; j < n; j++ {
				row += math.Abs(m.At(i, j))
			}
			if row > normA {
				normA = row
			}
		}
		scale := normA*NormInf(got) + NormInf(b) + 1e-300
		return MaxAbsDiff(res, b) < 1e-10*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLUDet(t *testing.T) {
	m := NewDense(2)
	m.Set(0, 0, 3)
	m.Set(0, 1, 1)
	m.Set(1, 0, 2)
	m.Set(1, 1, 5)
	f, err := m.Factor()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-13) > 1e-12 {
		t.Fatalf("Det = %g, want 13", f.Det())
	}
}

func randBanded(rng *rand.Rand, n, kl, ku int, dominant bool) *Banded {
	b := NewBanded(n, kl, ku)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if b.InBand(i, j) {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		if dominant {
			b.Set(i, i, b.At(i, i)+float64(kl+ku+2))
		}
	}
	return b
}

func TestBandedMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		kl := rng.Intn(3)
		ku := rng.Intn(3)
		if kl >= n {
			kl = n - 1
		}
		if ku >= n {
			ku = n - 1
		}
		b := randBanded(rng, n, kl, ku, false)
		d := b.Dense()
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		rhs := make([]float64, n)
		b.MulVec(x, rhs)
		// dense agreement on MulVec
		rhs2 := make([]float64, n)
		d.MulVec(x, rhs2)
		if MaxAbsDiff(rhs, rhs2) > 1e-10 {
			return false
		}
		// Pivoted LU is backward stable: whatever the conditioning, the
		// residual of the computed solution must be tiny relative to
		// ||A||*||x̂||. (Forward error can be large for near-singular
		// random matrices, so do not compare against x directly.)
		rhsOrig := Clone(rhs)
		if err := b.Factor(); err != nil {
			return true // numerically singular draw; nothing to check
		}
		b.Solve(rhs) // rhs now holds x̂
		res := make([]float64, n)
		d.MulVec(rhs, res)
		normA := 0.0
		for i := 0; i < n; i++ {
			row := 0.0
			for j := 0; j < n; j++ {
				row += math.Abs(d.At(i, j))
			}
			if row > normA {
				normA = row
			}
		}
		scale := normA*NormInf(rhs) + NormInf(rhsOrig) + 1e-300
		return MaxAbsDiff(res, rhsOrig) < 1e-10*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBandedAccuracyDominant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		kl := rng.Intn(3)
		ku := rng.Intn(3)
		b := randBanded(rng, n, kl, ku, true)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		rhs := make([]float64, n)
		b.MulVec(x, rhs)
		if err := b.Factor(); err != nil {
			return false
		}
		b.Solve(rhs)
		return MaxAbsDiff(rhs, x) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBandedPivotingRequired(t *testing.T) {
	// A band matrix with a zero leading pivot that plain (non-pivoting)
	// elimination cannot handle.
	b := NewBanded(3, 1, 1)
	b.Set(0, 0, 0)
	b.Set(0, 1, 2)
	b.Set(1, 0, 1)
	b.Set(1, 1, 0)
	b.Set(1, 2, 1)
	b.Set(2, 1, 3)
	b.Set(2, 2, 1)
	x := []float64{1, 2, 3}
	rhs := make([]float64, 3)
	b.MulVec(x, rhs)
	if err := b.Factor(); err != nil {
		t.Fatal(err)
	}
	b.Solve(rhs)
	if MaxAbsDiff(rhs, x) > 1e-12 {
		t.Fatalf("got %v want %v", rhs, x)
	}
}

func TestBandedSingular(t *testing.T) {
	b := NewBanded(2, 1, 1)
	// second column entirely zero
	b.Set(0, 0, 1)
	b.Set(1, 0, 1)
	if err := b.Factor(); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestBandedZeroAndRefill(t *testing.T) {
	b := NewBanded(4, 1, 1)
	for i := 0; i < 4; i++ {
		b.Set(i, i, 2)
	}
	if err := b.Factor(); err != nil {
		t.Fatal(err)
	}
	b.Zero()
	for i := 0; i < 4; i++ {
		b.Set(i, i, 4)
	}
	if err := b.Factor(); err != nil {
		t.Fatal(err)
	}
	rhs := []float64{4, 8, 12, 16}
	b.Solve(rhs)
	want := []float64{1, 2, 3, 4}
	if MaxAbsDiff(rhs, want) > 1e-12 {
		t.Fatalf("got %v want %v", rhs, want)
	}
}

func TestBandedSetOutsideBandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBanded(5, 1, 1)
	b.Set(0, 4, 1)
}

func TestTridiagKnown(t *testing.T) {
	// -x[i-1] + 2x[i] - x[i+1] = h^2, the discrete Poisson problem
	n := 9
	sub := make([]float64, n)
	diag := make([]float64, n)
	sup := make([]float64, n)
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		sub[i], diag[i], sup[i] = -1, 2, -1
		rhs[i] = 1
	}
	x, err := SolveTridiag(sub, diag, sup, rhs)
	if err != nil {
		t.Fatal(err)
	}
	// verify residual
	for i := 0; i < n; i++ {
		r := 2 * x[i]
		if i > 0 {
			r -= x[i-1]
		}
		if i < n-1 {
			r -= x[i+1]
		}
		if math.Abs(r-1) > 1e-12 {
			t.Fatalf("row %d residual %g", i, r-1)
		}
	}
	// symmetric solution
	if math.Abs(x[0]-x[n-1]) > 1e-12 {
		t.Fatalf("solution should be symmetric: %v", x)
	}
}

func TestTridiagMatchesBanded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		sub := make([]float64, n)
		diag := make([]float64, n)
		sup := make([]float64, n)
		rhs := make([]float64, n)
		b := NewBanded(n, 1, 1)
		for i := 0; i < n; i++ {
			diag[i] = 4 + rng.Float64()
			rhs[i] = rng.NormFloat64()
			b.Set(i, i, diag[i])
			if i > 0 {
				sub[i] = rng.NormFloat64()
				b.Set(i, i-1, sub[i])
			}
			if i < n-1 {
				sup[i] = rng.NormFloat64()
				b.Set(i, i+1, sup[i])
			}
		}
		x, err := SolveTridiag(sub, diag, sup, rhs)
		if err != nil {
			return false
		}
		if err := b.Factor(); err != nil {
			return false
		}
		b.Solve(rhs)
		return MaxAbsDiff(x, rhs) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTridiagSingular(t *testing.T) {
	_, err := SolveTridiag([]float64{0, 0}, []float64{0, 1}, []float64{0, 0}, []float64{1, 1})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestTridiagEmpty(t *testing.T) {
	x, err := SolveTridiag(nil, nil, nil, nil)
	if err != nil || x != nil {
		t.Fatalf("empty system: %v %v", x, err)
	}
}

// TestDenseLULatePivotRegression pins the dense-LU permutation bug: a matrix
// whose pivoting swaps rows at step 1 (after column 0 was already
// eliminated) must still solve exactly. With LAPACK-style full-row-swap
// storage the solve must apply all interchanges before forward substitution.
func TestDenseLULatePivotRegression(t *testing.T) {
	m := NewDense(3)
	rows := [][]float64{
		{2.8063319743411412, 1.6092737730048643, 1.0778032165075402},
		{0.25805606192186004, 2.3455525904769567, 0.5685087257214534},
		{-0.51247864463028, 1.9211376408000023, 2.6129318989796246},
	}
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	x := []float64{-0.5084482570629325, 0.2927875077773202, -0.7188659912213116}
	b := make([]float64, 3)
	m.MulVec(x, b)
	got, err := SolveDense(m, b)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(got, x) > 1e-12 {
		t.Fatalf("late-pivot system solved wrong: got %v want %v", got, x)
	}
}

// TestDenseLUForwardAccuracyDominant demands exact recovery on strictly
// dominant systems (well-conditioned, so forward error is meaningful).
func TestDenseLUForwardAccuracyDominant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		m := NewDense(n)
		for i := 0; i < n; i++ {
			off := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := rng.NormFloat64()
					m.Set(i, j, v)
					off += math.Abs(v)
				}
			}
			m.Set(i, i, off+1+rng.Float64())
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		m.MulVec(x, b)
		got, err := SolveDense(m, b)
		if err != nil {
			return false
		}
		return MaxAbsDiff(got, x) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBandedCopyFromReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, kl, ku = 32, 2, 2
	template := randBanded(rng, n, kl, ku, true)
	rhs0 := make([]float64, n)
	for i := range rhs0 {
		rhs0[i] = rng.NormFloat64()
	}

	// reference: factor a direct clone once
	ref := NewBanded(n, kl, ku)
	ref.CopyFrom(template)
	refRHS := Clone(rhs0)
	if err := ref.Factor(); err != nil {
		t.Fatal(err)
	}
	ref.Solve(refRHS)

	// reuse one workspace for several factor cycles: every cycle must
	// reproduce the reference solution exactly (same data, same algorithm)
	work := NewBanded(n, kl, ku)
	for cycle := 0; cycle < 3; cycle++ {
		work.CopyFrom(template)
		rhs := Clone(rhs0)
		if err := work.Factor(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		work.Solve(rhs)
		for i := range rhs {
			if rhs[i] != refRHS[i] {
				t.Fatalf("cycle %d: solution[%d] = %g, want %g (bitwise)", cycle, i, rhs[i], refRHS[i])
			}
		}
	}

	// dimension mismatch and factored-source misuse must panic
	for name, fn := range map[string]func(){
		"dim mismatch":    func() { NewBanded(n+1, kl, ku).CopyFrom(template) },
		"factored source": func() { NewBanded(n, kl, ku).CopyFrom(work) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CopyFrom %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkBandedFactorSolve measures the banded LU used by the sequential
// reference integrator (dimension 256, bandwidths 2). The matrix template
// is built once outside the timer; each iteration restores it with CopyFrom
// and re-factors, so the number measures the factor+solve kernel rather
// than NewBanded allocation and band filling.
func BenchmarkBandedFactorSolve(b *testing.B) {
	const n = 256
	template := NewBanded(n, 2, 2)
	rhs0 := make([]float64, n)
	for r := 0; r < n; r++ {
		template.Set(r, r, 8)
		for d := 1; d <= 2; d++ {
			if r >= d {
				template.Set(r, r-d, -1)
			}
			if r+d < n {
				template.Set(r, r+d, -1)
			}
		}
		rhs0[r] = float64(r % 7)
	}
	m := NewBanded(n, 2, 2)
	rhs := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CopyFrom(template)
		copy(rhs, rhs0)
		if err := m.Factor(); err != nil {
			b.Fatal(err)
		}
		m.Solve(rhs)
	}
}
