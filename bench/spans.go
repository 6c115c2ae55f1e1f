package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one record of the traced pass. A plain span is an interval on the
// process clock; an aggregate (Calls > 0) stands for every hot-path call of
// one kind made under its parent during one op — per-call records of a
// kernel that runs 90 000 times per op would cost more than the kernel.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: the span is an op, the root of its tree
	Op     int     `json:"op"`
	Name   string  `json:"name"` // "<layer>.<what>"
	Rank   int     `json:"rank"` // -1 when the span belongs to no single rank
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Calls  int64   `json:"calls,omitempty"`
	Busy   float64 `json:"busy_s,omitempty"` // aggregate: seconds summed over the calls
}

func (s span) dur() float64 {
	if s.Calls > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// layer is the module a span is charged to: the part of its name before the
// first dot.
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

// recorder keeps the spans of a traced pass in memory; they are written once,
// at exit.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() float64 { return time.Since(r.epoch).Seconds() }

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// open starts a plain span now; close ends it.
func (r *recorder) open(parent, op int, name string, rank int) int {
	return r.add(span{Parent: parent, Op: op, Name: name, Rank: rank, Start: r.now()})
}

func (r *recorder) close(id int) {
	end := r.now()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// interval records a plain span observed elsewhere (a rank's body, a
// worker, the service's own timestamps).
func (r *recorder) interval(parent, op int, name string, rank int, start, end time.Time) int {
	return r.add(span{Parent: parent, Op: op, Name: name, Rank: rank,
		Start: start.Sub(r.epoch).Seconds(), End: end.Sub(r.epoch).Seconds()})
}

// aggregate records calls hot-path calls that took busy in total.
func (r *recorder) aggregate(parent, op int, name string, rank int, calls int64, busy time.Duration) int {
	return r.add(span{Parent: parent, Op: op, Name: name, Rank: rank, Calls: max(calls, 1), Busy: busy.Seconds()})
}

func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes charges every second of each op span to exactly one span of its
// tree, keyed by span ID. A span's self time is its duration minus the part
// its children cover. Children that run side by side (two ranks on two
// cores) or are aggregates cover at most their parent's whole duration and
// share what they cover in proportion to their own durations, so the figures
// are wall seconds: within one tree they sum to the root's duration.
func selfTimes(spans []span) map[int]float64 {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]span)
	for _, s := range spans {
		byID[s.ID] = s
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	var walk func(s span, budget float64)
	walk = func(s span, budget float64) {
		d := s.dur()
		cs := kids[s.ID]
		if len(cs) == 0 || d <= 0 {
			self[s.ID] = budget
			return
		}
		durs := make([]float64, len(cs))
		var sum, aggregated float64
		var ivs [][2]float64
		for i, c := range cs {
			switch {
			case c.Calls > 0:
				durs[i] = c.Busy
				aggregated += c.Busy
			case s.Calls > 0: // interval under an aggregate: nothing to clip to
				durs[i] = c.dur()
				aggregated += durs[i]
			default:
				lo, hi := max(c.Start, s.Start), min(c.End, s.End)
				if hi > lo {
					durs[i] = hi - lo
					ivs = append(ivs, [2]float64{lo, hi})
				}
			}
			sum += durs[i]
		}
		covered := min(d, union(ivs)+aggregated)
		self[s.ID] = budget * (d - covered) / d
		for i, c := range cs {
			share := 0.0
			if sum > 0 {
				share = budget * covered / d * durs[i] / sum
			}
			walk(c, share)
		}
	}
	for _, root := range kids[0] {
		walk(root, root.dur())
	}
	return self
}

// union is the total length covered by a set of intervals.
func union(ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end float64
	for i, iv := range ivs {
		if i == 0 || iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// layerSelf sums self times by layer over all op trees.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}
