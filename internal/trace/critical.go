// Critical-path extraction over the causal trace.
//
// The recorded events induce a happens-before DAG: a compute span depends on
// the previous activity of its node and on the halo deliveries it consumed;
// a message delivery depends on its send; a send depends on the activity
// that preceded it on the sender. Walking that DAG backward from the halt
// anchor yields the critical path — the single causal chain whose length
// equals the run's makespan — and every second of it is attributable to
// compute, idle, link transit, or load balancing on a specific node.
package trace

import (
	"fmt"
	"sort"
)

// SegKind classifies one segment of the critical path.
type SegKind int

// Segment kinds.
const (
	SegCompute SegKind = iota // a compute span on the path
	SegIdle                   // the node was waiting (for data or a barrier)
	SegTransit                // a boundary/control message in flight
	SegLB                     // load-balancing work or an LB transfer in flight
	SegWire                   // a cross-process message on the real network
)

// NumSegKinds is the number of SegKind values (the length of
// CriticalPath.ByKind).
const NumSegKinds = 5

// String returns a short name for the segment kind.
func (k SegKind) String() string {
	switch k {
	case SegCompute:
		return "compute"
	case SegIdle:
		return "idle"
	case SegTransit:
		return "transit"
	case SegLB:
		return "lb"
	case SegWire:
		return "wire"
	default:
		return fmt.Sprintf("seg(%d)", int(k))
	}
}

// Segment is one hop of the critical path. Node is the node the time is
// charged to (the receiver for transit segments, which is where the wait is
// felt); From is the sending node for transit segments and -1 otherwise.
type Segment struct {
	Kind   SegKind
	Node   int
	From   int
	T0, T1 float64
	Iter   int    // iteration of the underlying event, -1 if n/a
	Xfer   uint64 // LB transfer id when the segment belongs to a handshake
	Note   string
}

// Dur returns the segment duration.
func (s Segment) Dur() float64 { return s.T1 - s.T0 }

// NodeBlame aggregates critical-path time charged to one node.
type NodeBlame struct {
	Node                             int
	Compute, Idle, Transit, LB, Wire float64
}

// Total returns the node's total on-path time.
func (b NodeBlame) Total() float64 { return b.Compute + b.Idle + b.Transit + b.LB + b.Wire }

// CriticalPath is the result of Analyze.
type CriticalPath struct {
	// Segments in chronological order, from run start to the halt anchor.
	Segments []Segment
	// Start and End bound the path; Total = End - Start is the makespan
	// being explained.
	Start, End float64
	// ByKind sums segment durations per SegKind (index by SegKind).
	ByKind [NumSegKinds]float64
	// Blame charges each segment to a node, indexed by rank (transit time
	// is charged to the receiver). Nodes that never appear on the path have
	// zero rows.
	Blame []NodeBlame
	// OnPathXfers / OffPathXfers classify every LB transfer id seen in the
	// trace by whether any of its events lies on the critical path.
	OnPathXfers, OffPathXfers []uint64
	// Anchor is the event the backward walk started from: the latest
	// "halt" mark, or the latest event in the trace if no halt was traced.
	Anchor Event
}

// Total returns the path length in seconds.
func (cp *CriticalPath) Total() float64 { return cp.End - cp.Start }

// Coverage reports the fraction of Total explained by the segments; the
// walk is gapless by construction, so this is 1.0 up to float rounding.
func (cp *CriticalPath) Coverage() float64 {
	total := cp.Total()
	if total <= 0 {
		return 1
	}
	var sum float64
	for _, d := range cp.ByKind {
		sum += d
	}
	return sum / total
}

// isActivity reports whether the event occupies its node for [T0, T1].
func isActivity(k Kind) bool { return k == Compute || k == Balance }

// isMessage reports whether the event is a transfer with a destination.
func isMessage(k Kind) bool {
	return k == SendLeft || k == SendRight || k == SendLB || k == Control || k == Wire
}

// Analyze builds the happens-before walk over evs (as returned by
// Log.Events or ReadCSV) and extracts the critical path. It is a pure
// function of the event sequence, so bit-identical traces yield
// byte-identical reports.
func Analyze(evs []Event) *CriticalPath {
	cp := &CriticalPath{}
	if len(evs) == 0 {
		return cp
	}

	maxNode := 0
	start := evs[0].T0
	for _, ev := range evs {
		if ev.T0 < start {
			start = ev.T0
		}
		if ev.Node > maxNode {
			maxNode = ev.Node
		}
		if ev.To > maxNode {
			maxNode = ev.To
		}
	}

	// Per-node activity spans and inbound deliveries, sorted by end time.
	acts := make([][]Event, maxNode+1)
	arrs := make([][]Event, maxNode+1)
	var anchor *Event
	for i := range evs {
		ev := evs[i]
		// Events charged to no rank (Node < 0: coordinator wire spans,
		// supervision marks) are context only — they never unblock a node,
		// so they join neither the activity nor the arrival index.
		switch {
		case isActivity(ev.Kind) && ev.Node >= 0:
			acts[ev.Node] = append(acts[ev.Node], ev)
		case isMessage(ev.Kind) && ev.Node >= 0 && ev.To >= 0:
			arrs[ev.To] = append(arrs[ev.To], ev)
		}
		if ev.Kind == Mark && ev.Note == "halt" && ev.Node >= 0 {
			if anchor == nil || ev.T1 > anchor.T1 ||
				(ev.T1 == anchor.T1 && ev.Node > anchor.Node) {
				anchor = &evs[i]
			}
		}
	}
	if anchor == nil {
		for i := range evs {
			if evs[i].Node < 0 {
				continue
			}
			if anchor == nil || evs[i].T1 > anchor.T1 ||
				(evs[i].T1 == anchor.T1 && evs[i].Node > anchor.Node) {
				anchor = &evs[i]
			}
		}
	}
	if anchor == nil {
		// Every event is unattributed (a wire-only log): nothing to walk.
		return cp
	}
	for n := range acts {
		sortByEnd(acts[n])
		sortByEnd(arrs[n])
	}

	cp.Anchor = *anchor
	cp.Start = start
	cp.End = anchor.T1
	cp.Blame = make([]NodeBlame, maxNode+1)
	for n := range cp.Blame {
		cp.Blame[n].Node = n
	}

	// Backward walk. At (node, t) the node was last unblocked by whichever
	// ended latest: its own previous activity, or an inbound delivery.
	node, t := anchor.Node, anchor.T1
	onPath := map[uint64]bool{}
	var segs []Segment
	const eps = 1e-12
	for steps := 0; t > start+eps && steps < 4*len(evs)+8; steps++ {
		a := latestBefore(acts[node], t)
		m := latestBefore(arrs[node], t)
		var pick *Event
		viaMsg := false
		if a != nil {
			pick = a
		}
		if m != nil && (pick == nil || m.T1 > pick.T1) {
			pick = m
			viaMsg = true
		}
		if pick == nil {
			segs = append(segs, Segment{Kind: SegIdle, Node: node, From: -1, T0: start, T1: t, Iter: -1})
			t = start
			break
		}
		if pick.T1 < t-eps {
			segs = append(segs, Segment{Kind: SegIdle, Node: node, From: -1, T0: pick.T1, T1: t, Iter: -1})
		}
		if viaMsg {
			kind := SegTransit
			switch pick.Kind {
			case SendLB:
				kind = SegLB
			case Wire:
				kind = SegWire
			}
			if pick.Xfer != 0 {
				onPath[pick.Xfer] = true
			}
			segs = append(segs, Segment{
				Kind: kind, Node: pick.To, From: pick.Node,
				T0: pick.T0, T1: pick.T1, Iter: pick.Iter, Xfer: pick.Xfer, Note: pick.Note,
			})
			node, t = pick.Node, pick.T0
		} else {
			kind := SegCompute
			if pick.Kind == Balance {
				kind = SegLB
			}
			if pick.Xfer != 0 {
				onPath[pick.Xfer] = true
			}
			segs = append(segs, Segment{
				Kind: kind, Node: pick.Node, From: -1,
				T0: pick.T0, T1: pick.T1, Iter: pick.Iter, Xfer: pick.Xfer, Note: pick.Note,
			})
			t = pick.T0
		}
	}
	if t > start+eps {
		// Walk hit the step guard; close the remainder as idle so the
		// accounting still sums to the makespan.
		segs = append(segs, Segment{Kind: SegIdle, Node: node, From: -1, T0: start, T1: t, Iter: -1})
	}

	// Reverse into chronological order and aggregate.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	cp.Segments = segs
	for _, s := range segs {
		cp.ByKind[s.Kind] += s.Dur()
		b := &cp.Blame[s.Node]
		switch s.Kind {
		case SegCompute:
			b.Compute += s.Dur()
		case SegIdle:
			b.Idle += s.Dur()
		case SegTransit:
			b.Transit += s.Dur()
		case SegLB:
			b.LB += s.Dur()
		case SegWire:
			b.Wire += s.Dur()
		}
	}

	// Classify every LB transfer id seen anywhere in the trace.
	all := map[uint64]bool{}
	for _, ev := range evs {
		if ev.Xfer != 0 {
			all[ev.Xfer] = true
		}
	}
	for id := range all {
		if onPath[id] {
			cp.OnPathXfers = append(cp.OnPathXfers, id)
		} else {
			cp.OffPathXfers = append(cp.OffPathXfers, id)
		}
	}
	sortUint64(cp.OnPathXfers)
	sortUint64(cp.OffPathXfers)
	return cp
}

// latestBefore returns the event in evs (sorted by end time) with the
// largest T1 <= t whose T0 is strictly before t — the strictness guarantees
// the backward walk makes progress even over zero-duration spans.
func latestBefore(evs []Event, t float64) *Event {
	i := sort.Search(len(evs), func(i int) bool { return evs[i].T1 > t })
	for i--; i >= 0; i-- {
		if evs[i].T0 < t {
			return &evs[i]
		}
	}
	return nil
}

func sortByEnd(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].T1 != evs[j].T1 {
			return evs[i].T1 < evs[j].T1
		}
		return evs[i].T0 < evs[j].T0
	})
}

func sortUint64(s []uint64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
