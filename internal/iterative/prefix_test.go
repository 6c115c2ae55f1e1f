package iterative_test

import (
	"math"
	"strings"
	"testing"

	"aiac/internal/brusselator"
	"aiac/internal/iterative"
)

// Rule c of DESIGN §4.2: a frozen prefix is a statement about operand bits.
func TestCommonPrefixIsBitwise(t *testing.T) {
	nan := math.NaN()
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		a, b []float64
		want int
	}{
		{"equal", []float64{1, 2, 3}, []float64{1, 2, 3}, 3},
		{"differs", []float64{1, 2, 3}, []float64{1, 2.5, 3}, 1},
		{"shorter", []float64{1, 2}, []float64{1, 2, 3}, 2},
		{"empty", nil, []float64{1}, 0},
		// == would say 2: the zeros compare equal and divide differently
		{"signed zero", []float64{1, 0}, []float64{1, negZero}, 1},
		// == would say 1: the same NaN is the same operand
		{"nan", []float64{1, nan, 2}, []float64{1, nan, 2}, 3},
	} {
		if got := iterative.CommonPrefix(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: CommonPrefix = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func prefixBruss() *brusselator.Problem {
	p := brusselator.DefaultParams(9, 0.05)
	p.T = 1
	return brusselator.New(p)
}

// quietTooLong reports one entry more than its update left alone.
type quietTooLong struct{ *brusselator.Problem }

func (p quietTooLong) UpdateFrom(j, from int, old []float64, get func(int) []float64, out []float64) (float64, int) {
	w, q := p.Problem.UpdateFrom(j, from, old, get, out)
	return w, q + 1
}

// pastThePromise skips one time step more than it was promised: the first
// step whose neighbours did change.
type pastThePromise struct{ *brusselator.Problem }

func (p pastThePromise) UpdateFrom(j, from int, old []float64, get func(int) []float64, out []float64) (float64, int) {
	if from >= 2 {
		from = min(from+2, p.TrajLen())
	}
	return p.Problem.UpdateFrom(j, from, old, get, out)
}

// deafLane starts both lanes of a fused update after the first component's
// prefix, ignoring that a neighbour of the second changed earlier.
type deafLane struct{ *brusselator.Problem }

func (p deafLane) UpdatePairFrom(j1, j2, from1, _ int, old1, old2 []float64, get func(int) []float64, out1, out2 []float64) (float64, float64, int, int) {
	return p.Problem.UpdatePairFrom(j1, j2, from1, from1, old1, old2, get, out1, out2)
}

// TestCheckProblemPrefixExtension: the conformance check passes the real
// extension and names what is wrong with each broken one.
func TestCheckProblemPrefixExtension(t *testing.T) {
	if err := iterative.CheckProblem(prefixBruss()); err != nil {
		t.Fatalf("brusselator: %v", err)
	}
	for _, tc := range []struct {
		name string
		p    iterative.Problem
		want string
	}{
		{"quiet one entry too long", quietTooLong{prefixBruss()}, "reported quiet"},
		{"skips past the promise", pastThePromise{prefixBruss()}, "differs from Update"},
		{"ignores a changed neighbour", deafLane{prefixBruss()}, "differs from Update"},
	} {
		err := iterative.CheckProblem(tc.p)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckProblem = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
