// Package metrics is the virtual-time-aware telemetry layer of the
// reproduction: typed counters/gauges/histograms, a periodic per-node
// sampler with a bounded snapshot buffer, per-run manifests (full
// configuration echo plus outcome), and a JSONL export format consumed by
// cmd/aiacreport.
//
// The paper's whole argument is read off execution traces — idle time under
// SISC/SIAC/AIAC, load migration over time, residual decay with and without
// balancing — and asynchronous iterations have no global synchronized state
// to inspect after the fact, so observation must be collected online, as
// the run happens. A Sink attached to engine.Config.Metrics collects all of
// it; every hook is nil-safe, and with metrics disabled the engine and
// runtime hot paths perform no extra allocations (pinned by alloc tests).
//
// All instruments are safe for concurrent use: the deterministic
// virtual-time runtime runs one process at a time, but the real goroutine
// runtime observes deliveries on every rank's goroutine at once.
package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil *Counter ignores updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 instrument holding a last-written or maximum value.
// The zero value is ready to use; a nil *Gauge ignores updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Max raises the gauge to v if v is larger than the stored value.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the stored value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of histogram buckets: bucket 0 holds values
// up to histFloor, bucket i holds (histFloor·2^(i-1), histFloor·2^i], and
// the last bucket is open-ended.
const (
	histBuckets = 30
	histFloor   = 1e-6 // seconds; delivery latencies below 1 µs are "instant"
)

// Histogram accumulates a distribution of non-negative durations (seconds)
// in logarithmic base-2 buckets spanning 1 µs to ~9 minutes. The zero value
// is ready to use; a nil *Histogram ignores updates.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    Gauge // accumulated via CAS in Observe
}

func bucketOf(v float64) int {
	if v <= histFloor {
		return 0
	}
	// v/histFloor can overflow to +Inf for huge v, and converting an
	// infinite float to int is implementation-defined — clamp first.
	l := math.Log2(v / histFloor)
	if !(l < float64(histBuckets-1)) { // catches +Inf and NaN too
		return histBuckets - 1
	}
	b := 1 + int(math.Floor(l))
	// The log is inexact at the bucket bounds (histFloor is not a power of
	// two): snap to the bucket whose inclusive upper bound covers v.
	if v <= BucketBound(b-1) {
		b--
	} else if v > BucketBound(b) {
		b++
	}
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i (the last
// bucket reports +Inf).
func BucketBound(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return histFloor * math.Pow(2, float64(i))
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// add adds v to the gauge's value.
func (g *Gauge) add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64frombits(old) + v
		if g.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// merge adds a snapshot of another histogram, bucket by bucket: Snapshot
// exports bucket i at index i.
func (h *Histogram) merge(s HistSnapshot) error {
	if len(s.Counts) > histBuckets {
		return fmt.Errorf("metrics: latency histogram with %d buckets, want at most %d", len(s.Counts), histBuckets)
	}
	for i, n := range s.Counts {
		h.counts[i].Add(n)
	}
	h.count.Add(s.Count)
	h.sum.add(s.Sum)
	return nil
}

// HistSnapshot is an immutable copy of a Histogram, as exported to JSONL.
type HistSnapshot struct {
	// Bounds[i] is the inclusive upper bound of bucket i in seconds; the
	// last bucket is open-ended and exported as a large sentinel.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram. Trailing empty buckets are trimmed.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{}
	if h == nil {
		return s
	}
	last := -1
	counts := make([]uint64, histBuckets)
	for i := range counts {
		counts[i] = h.counts[i].Load()
		if counts[i] > 0 {
			last = i
		}
	}
	for i := 0; i <= last; i++ {
		bound := BucketBound(i)
		if math.IsInf(bound, 1) {
			bound = math.MaxFloat64
		}
		s.Bounds = append(s.Bounds, bound)
		s.Counts = append(s.Counts, counts[i])
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Value()
	return s
}

// Mean returns the average observed value (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns the upper bound of the bucket containing the q-quantile
// (q in [0, 1]); 0 when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen >= target {
			return s.Bounds[i]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}
