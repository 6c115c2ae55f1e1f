package engine

// compStore maps global component positions to trajectories. It replaces the
// map[int][]float64 stores the nodes originally used: get() runs once per
// component per sweep — the innermost engine operation after the numerical
// kernel itself — and a map hit there costs a hash plus a bucket probe where
// a slice index costs a subtraction and a bounds check.
//
// The store is a window [base, base+len(slots)) of slots over the global
// position axis. A node's window is its owned range plus the halos; load
// balancing shifts the range boundaries a few positions per transfer, and
// the store re-bases (with slack on the growing side) when a position falls
// outside the current window, so a drifting range stays amortized O(1) per
// set. Absent positions hold nil, exactly like a missing map key.
//
// Beside each trajectory a slot keeps same: how many of its leading entries
// are bit-identical to what the previous sweep read at that position (DESIGN
// §4.2, "What a sweep may skip"). Only the sweep, which knows what it read,
// and recvBoundary, which compares what it replaces, ever raise it, by
// setSame. Every other way a trajectory enters or leaves a slot — set, del,
// prune — puts the count back to 0 here, so no caller can store a trajectory
// the previous sweep never saw and leave a promise about it standing.
type compStore struct {
	base  int
	slots []compSlot
}

type compSlot struct {
	traj []float64
	same int
}

// storeSlack is how many extra slots a re-base adds on the growing side.
const storeSlack = 8

// reset sizes the store to the empty window [lo, hi), reusing the backing
// slice when possible.
func (s *compStore) reset(lo, hi int) {
	n := hi - lo
	if n < 0 {
		n = 0
	}
	s.base = lo
	if cap(s.slots) >= n {
		s.slots = s.slots[:n]
		clear(s.slots)
		return
	}
	s.slots = make([]compSlot, n)
}

// get returns the trajectory at global position j, or nil when absent. This
// is the hot path.
func (s *compStore) get(j int) []float64 {
	i := j - s.base
	if i < 0 || i >= len(s.slots) {
		return nil
	}
	return s.slots[i].traj
}

// set stores tr at global position j, re-basing the window if j falls
// outside it.
func (s *compStore) set(j int, tr []float64) {
	i := j - s.base
	if i < 0 || i >= len(s.slots) {
		s.grow(j)
		i = j - s.base
	}
	s.slots[i] = compSlot{traj: tr}
}

// sameAt returns the same count at global position j, 0 when absent.
func (s *compStore) sameAt(j int) int {
	i := j - s.base
	if i < 0 || i >= len(s.slots) {
		return 0
	}
	return s.slots[i].same
}

// setSame records that the first k entries of the trajectory at global
// position j are what the previous sweep read there; j must be inside the
// window.
func (s *compStore) setSame(j, k int) {
	s.slots[j-s.base].same = k
}

// del clears global position j (out-of-window positions are already absent).
func (s *compStore) del(j int) {
	i := j - s.base
	if i >= 0 && i < len(s.slots) {
		s.slots[i] = compSlot{}
	}
}

// swap exchanges the trajectories at global position j between two stores;
// both positions must be inside their windows (owned components always are).
// The counts stay where they are: the sweep, the only caller, sets them next.
func (s *compStore) swap(o *compStore, j int) {
	si, oi := j-s.base, j-o.base
	s.slots[si].traj, o.slots[oi].traj = o.slots[oi].traj, s.slots[si].traj
}

// grow re-bases the window to include global position j, with storeSlack
// spare slots on the side that grew. The counts move with their slots.
func (s *compStore) grow(j int) {
	if len(s.slots) == 0 {
		s.base = j
		if cap(s.slots) >= 1 {
			s.slots = s.slots[:1]
			s.slots[0] = compSlot{}
			return
		}
		s.slots = make([]compSlot, 1, 1+storeSlack)
		return
	}
	lo, hi := s.base, s.base+len(s.slots)
	switch {
	case j < lo:
		lo = j - storeSlack
	case j >= hi:
		hi = j + 1 + storeSlack
	default:
		return
	}
	ns := make([]compSlot, hi-lo)
	copy(ns[s.base-lo:], s.slots)
	s.base, s.slots = lo, ns
}

// prune clears every position outside [lo, hi), mirroring the map-delete
// sweep the engine runs after a load-balancing range move.
func (s *compStore) prune(lo, hi int) {
	for i := range s.slots {
		j := s.base + i
		if j < lo || j >= hi {
			s.slots[i] = compSlot{}
		}
	}
}
