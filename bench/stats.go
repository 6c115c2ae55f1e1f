package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest value with at least p% of the sample at or below it. It is an
// observed value, never an interpolation, so a p10 of op times is the time of
// a real op. xs is not modified; an empty sample gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// lowest is the smallest of xs, 0 for none. Of a run's op times it is the op
// the host's other tenants slowed least, and of its chunks' allocation the
// chunk whose asynchronous solves they stretched least: see README.md,
// finding 8.
func lowest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// ratio is a/b with 0 for an empty denominator, so per-op figures of a window
// in which every op failed read 0 instead of NaN (JSON has no NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mean is taken about the first value, so that the mean of equal values is
// that value to the last bit however many there are: vt-table1 and
// vt-table1-par average different numbers of ops and must print the same
// model time.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var d float64
	for _, x := range xs {
		d += x - xs[0]
	}
	return xs[0] + d/float64(len(xs))
}
