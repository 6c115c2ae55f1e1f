package engine

import (
	"fmt"
	"math"
	"sync"

	"aiac/internal/detect"
	"aiac/internal/fault"
	"aiac/internal/iterative"
	"aiac/internal/loadbalance"
	"aiac/internal/metrics"
	"aiac/internal/runenv"
	"aiac/internal/trace"
)

const (
	dirLeft  = 0
	dirRight = 1
)

// nodeOutcome is what one worker hands back to Run when it halts.
type nodeOutcome struct {
	positions []int
	trajs     [][]float64
	// provisional[i] marks positions re-adopted by the halt-time restore
	// of an unacknowledged transfer: their trajectories are stale, and
	// the gathered state prefers any other node's copy.
	provisional []bool
	iters       int
	work        float64
	residual    float64

	lbSent, lbRecv, lbRejected, compsMoved int
	lbRetries                              int
	msgsBoundary, suppressed               int

	// haltedOK is detect.Node.OK at halt: the ring protocol's verdict,
	// which has no coordinator to report it.
	haltedOK bool
}

// node is one worker process: it owns the contiguous component range
// [startC, endC), the trajectories of those components plus a halo on each
// side, and all the per-node protocol state.
type node struct {
	env  runenv.Env
	cfg  *Config
	rank int
	p    int
	// det is this node's side of the convergence-detection protocol.
	det *detect.Node

	prob iterative.Problem
	// upd is how the sweep calls prob: through its PrefixUpdater extension,
	// or through plainUpdater when it has none.
	upd iterative.PrefixUpdater
	// pair says the sweep may fuse two component updates: the problem can,
	// and reads are Jacobi (not under local Gauss-Seidel, where component
	// j+1 must observe j's fresh trajectory).
	pair    bool
	halo    int
	m       int // total components
	trajLen int

	startC, endC int
	val          compStore // previous-iteration trajectories + halos
	buf          compStore // scratch buffers for owned components
	// getFn is n.get as a prebuilt func value: materializing the method
	// value inside the sweep loop would allocate a closure per Update call.
	getFn func(i int) []float64
	// quiet is the sweep's scratch: per owned component, how many leading
	// entries its update left bit-identical (val's same counts to be).
	quiet []int
	// frozen / entries: how many trajectory entries the sweeps handed the
	// problem as frozen, out of how many they produced (Config.skipTally).
	frozen, entries int
	// unique says no message of the run reaches its receiver twice: the
	// fault plan, if any, duplicates nothing. See recycle.
	unique bool

	residual    float64 // last completed iteration's residual
	iterTime    float64 // duration of the last compute sweep
	loadEst     float64 // (smoothed) load estimate attached to messages
	loadEstInit bool
	iter        int // completed iterations

	// Telemetry state (plain counters; cheap even with metrics disabled).
	busyTime  float64    // cumulative compute-sweep time
	msgsRecv  int        // data-plane messages received
	lastHaloT [2]float64 // time the freshest halo from each direction was integrated
	lastConv  bool       // last reported local-convergence state (metrics events)

	nbLoad      [2]float64
	nbLoadValid [2]bool
	nbIter      [2]int

	sendBusyUntil [2]float64 // boundary-send mutual exclusion (Figure 4)

	lbPending      [2]bool
	lbPendingPos   [2]int
	lbPendingCount [2]int
	lbPendingSent  [2]float64 // send time, for flight-duration backoff
	lbKeep         [2]lbUndo
	lbDone         bool
	okToTry        int

	// Unreliable-network hardening: each transfer carries a unique id; an
	// unanswered transfer is retransmitted after lbRetryAfter iterations
	// (doubling up to lbRetryCap periods), and the receiver-side ledger
	// makes integration at-most-once and rejection final per id.
	lbXferID      [2]uint64
	lbPendingIter [2]int // iteration of the last (re)transmission
	lbRetryAfter  [2]int // iterations until the next retransmission
	lbResendMsg   [2]lbDataMsg
	lbLedger      loadbalance.RecvLedger
	xferSeq       uint64

	// nbHaloIter[dir] is the iteration tag of the newest integrated halo
	// from that direction; older (reordered or duplicated) boundary
	// messages must not overwrite fresher halo data.
	nbHaloIter [2]int

	// inSweep is true while sweep is between its first Update and its
	// buf→val swap; it tells newest() where the freshest values live.
	inSweep bool
	// sweepPos is the component currently being updated; under local
	// Gauss-Seidel, get() serves buf values for own components already
	// updated this sweep.
	sweepPos int

	outc nodeOutcome
}

func newNode(env runenv.Env, cfg *Config, rank int) *node {
	n := &node{
		env:        env,
		cfg:        cfg,
		rank:       rank,
		p:          cfg.P,
		prob:       cfg.Problem,
		halo:       cfg.Problem.Halo(),
		m:          cfg.Problem.Components(),
		trajLen:    cfg.Problem.TrajLen(),
		nbIter:     [2]int{-1, -1},
		nbHaloIter: [2]int{-1, -1},
		okToTry:    cfg.LBWarmup,
		unique:     cfg.Faults == nil || cfg.Faults.Msg.Dup == 0,
	}
	if cfg.free == nil {
		// A node built on its own, outside Run and RunDistWorker, starts
		// the list its Config's other nodes will share.
		cfg.free = newRunFree(n.trajLen, cfg.P, cfg.poisonFree)
	}
	n.getFn = n.get
	n.det = &detect.Node{
		Env: env, Protocol: cfg.protocol(), P: cfg.P,
		Streak: convStreak, TraceIters: cfg.TraceIters,
		Data: n.handleData,
	}
	n.upd, n.pair = asPrefixUpdater(cfg.Problem)
	n.pair = n.pair && !cfg.GaussSeidelLocal
	n.startC, n.endC = partition(n.m, n.p, rank)
	n.val.reset(n.startC-n.halo, n.endC+n.halo)
	n.buf.reset(n.startC, n.endC)
	for j := n.startC - n.halo; j < n.endC+n.halo; j++ {
		if j < 0 || j >= n.m {
			continue
		}
		n.val.set(j, n.prob.Init(j))
		if j >= n.startC && j < n.endC {
			n.buf.set(j, make([]float64, n.trajLen))
		}
	}
	n.ownLog(fault.OwnInit, n.startC, n.endC, 0)
	return n
}

// ownLog records one ownership transition into the invariant log, if any.
func (n *node) ownLog(a fault.OwnAction, lo, hi int, xfer uint64) {
	if l := n.cfg.OwnershipLog; l != nil {
		l.Add(fault.OwnEvent{T: n.env.Now(), Rank: n.rank, Action: a, Lo: lo, Hi: hi, Xfer: xfer})
	}
}

// pendingOwnRange returns the global range of owned components shipped in
// the direction's pending transfer (excluding the halo dependency copies).
func (n *node) pendingOwnRange(dir int) (lo, hi int) {
	pos, count := n.lbPendingPos[dir], n.lbPendingCount[dir]
	if dir == dirRight {
		return pos + n.halo, pos + n.halo + count
	}
	return pos, pos + count
}

// run executes the node until global halt and returns its outcome.
func (n *node) run() *nodeOutcome {
	n.iterate()
	if n.cfg.Trace != nil {
		// The halt anchor the critical-path analysis walks back from; not
		// gated by TraceIters (one event per node per run).
		now := n.env.Now()
		n.env.Trace(trace.Event{
			T0: now, T1: now, Node: n.rank, To: -1,
			Kind: trace.Mark, Iter: n.iter, Note: "halt",
		})
	}
	// A transfer still unacknowledged at halt is treated as rejected so
	// the shipped components are not lost from the gathered state (the
	// receiver may also have integrated them; Run deduplicates,
	// preferring the receiver's fresher copies over these provisional
	// restored ones).
	restored := make(map[int]bool)
	for dir := 0; dir < 2; dir++ {
		if n.lbPending[dir] {
			keep := &n.lbKeep[dir]
			for i, tr := range keep.trs {
				if tr != nil {
					restored[keep.lo+i] = true
				}
			}
			lo, hi := n.pendingOwnRange(dir)
			n.ownLog(fault.OwnHaltRestore, lo, hi, n.lbXferID[dir])
			n.restoreLB(dir)
		}
	}
	// The owned range is contiguous, so a plain position scan yields the
	// sorted order the gather expects (the seed sorted the map keys here).
	for j := n.startC; j < n.endC; j++ {
		n.outc.positions = append(n.outc.positions, j)
		n.outc.trajs = append(n.outc.trajs, n.val.get(j))
		n.outc.provisional = append(n.outc.provisional, restored[j])
	}
	if s := n.cfg.skipTally; s != nil {
		s.frozen.Add(int64(n.frozen))
		s.entries.Add(int64(n.entries))
	}
	n.outc.iters = n.iter
	n.outc.residual = n.residual
	n.outc.haltedOK = n.det.OK()
	return &n.outc
}

// iterate is the main loop of every mode: Algorithm 1, extended in the AIAC
// modes with the Algorithm 4 load-balancing sections, and kept in lockstep in
// the synchronous ones by the neighbor-data wait (SISC and SIAC) and the
// detection barrier (SISC).
func (n *node) iterate() {
	cfg := n.cfg
	for {
		n.drain()
		if n.det.Halted() || n.env.Stopped() {
			return
		}
		if cfg.LB.Enabled {
			n.lbRetry()
		}
		if cfg.LB.Enabled && n.iter >= cfg.LBWarmup {
			if n.lbDone {
				// Algorithm 4: the resize after a completed transfer.
				// Range bookkeeping happened eagerly on receipt; this
				// branch just consumes the flag (and costs an iteration
				// before the next attempt, as in the paper).
				n.lbDone = false
			} else if n.okToTry <= 0 {
				if !n.tryLB(dirLeft) {
					n.tryLB(dirRight)
				}
			} else {
				n.okToTry--
			}
		}
		k := n.iter
		n.sweep(cfg.Mode != SISC)
		if cfg.Mode == SISC {
			n.sendBoundary(dirLeft, n.loadEst, k)
		}
		n.sendBoundary(dirRight, n.loadEst, k)
		n.iter++
		conv := n.residual < cfg.Tol
		n.noteConv(conv)
		if n.det.Iterate(k, conv, n.iter >= cfg.MaxIter) {
			return
		}
		if cfg.Mode.Synchronous() && !n.waitNeighbors(k) {
			return
		}
	}
}

// sweep performs one local iteration: it updates every owned component into
// buf, optionally sending the left halo mid-iteration (SIAC/AIAC), then
// computes the residual and promotes buf to val.
func (n *node) sweep(midSendLeft bool) {
	cfg := n.cfg
	t0 := n.env.Now()
	n.env.Work(iterOverhead)
	n.outc.work += iterOverhead

	count := n.endC - n.startC
	sendAt := n.halo
	if sendAt > count-1 {
		sendAt = count - 1
	}
	n.inSweep = true
	idx := 0
	var w2 float64
	pending2 := false
	// Rule b: every from below reads the counts the previous sweep left in
	// val — a Jacobi read, like the trajectories — so what this sweep finds
	// goes to n.quiet and reaches val only in the swap pass.
	quiet := n.quiet[:0]
	for j := n.startC; j < n.endC; j++ {
		var w float64
		switch {
		case pending2:
			// second half of a fused update, already computed
			w, pending2 = w2, false
		case n.pair && j+1 < n.endC:
			// Fused two-component update: bit-identical results, but the
			// two inner solves overlap. Work is charged per component in
			// the original order, so virtual times and the mid-sweep send
			// point are unchanged.
			var q1, q2 int
			w, w2, q1, q2 = n.upd.UpdatePairFrom(j, j+1, n.from(j), n.from(j+1),
				n.val.get(j), n.val.get(j+1), n.getFn, n.buf.get(j), n.buf.get(j+1))
			quiet = append(quiet, q1, q2)
			pending2 = true
		default:
			n.sweepPos = j
			var q int
			w, q = n.upd.UpdateFrom(j, n.from(j), n.val.get(j), n.getFn, n.buf.get(j))
			quiet = append(quiet, q)
		}
		units := w*cfg.WorkScale + compOverhead
		n.env.Work(units)
		n.outc.work += units
		if midSendLeft && idx == sendAt {
			// "if j = StartC+2 … send the two first local components to
			// the left processor" — with the previous iteration's load
			// estimate attached (Algorithm 4 attaches "the residual of
			// [the] previous iteration" to the left sends; loadEst is
			// refreshed only after the sweep).
			n.sendBoundary(dirLeft, n.loadEst, n.iter)
		}
		idx++
	}
	res := 0.0
	for i, q := range quiet {
		j := n.startC + i
		// the quiet prefix differs by exactly 0: scan the rest
		if r := iterative.Residual(n.val.get(j)[q:], n.buf.get(j)[q:]); r > res {
			res = r
		}
		n.val.swap(&n.buf, j)
		n.val.setSame(j, q)
	}
	// A halo the sweep has read is, until recvBoundary replaces it, what the
	// previous sweep read — all of it.
	for i := 1; i <= n.halo; i++ {
		for _, j := range [2]int{n.startC - i, n.endC - 1 + i} {
			if n.val.get(j) != nil {
				n.val.setSame(j, n.trajLen)
			}
		}
	}
	n.quiet = quiet
	n.inSweep = false
	n.residual = res
	n.iterTime = n.env.Now() - t0
	n.busyTime += n.iterTime
	n.updateLoadEst()
	if s := cfg.Metrics; s != nil {
		n.sampleMetrics(s, res)
	}
	if n.traceOn() {
		// The halo tags record which neighbor versions this sweep consumed
		// (constant during the sweep: integration only happens in drain and
		// the blocking waits) — the inbound edges of the happens-before DAG.
		n.env.Trace(trace.Event{
			T0: t0, T1: n.env.Now(), Node: n.rank, To: -1,
			Kind: trace.Compute, Iter: n.iter,
			HaloL: n.nbHaloIter[dirLeft], HaloR: n.nbHaloIter[dirRight],
		})
	}
}

// get is the neighbor accessor handed to Problem.Update. Under local
// Gauss-Seidel it serves the freshest values for own components already
// updated in the current sweep.
func (n *node) get(i int) []float64 {
	if n.cfg.GaussSeidelLocal && n.inSweep && i >= n.startC && i < n.sweepPos {
		if tr := n.buf.get(i); tr != nil {
			return tr
		}
	}
	tr := n.val.get(i)
	if tr == nil {
		panic(fmt.Sprintf("engine: node %d accessed unknown component %d (owns [%d,%d))",
			n.rank, i, n.startC, n.endC))
	}
	return tr
}

// sendBoundary ships the node's first (dirLeft) or last (dirRight) halo
// components — their freshly computed values — to the chain neighbor,
// with global positions and the load estimate attached. Under the AIAC
// variant the send is suppressed while the previous one in the same
// direction is still in flight (the Figure 4 mutual exclusion).
func (n *node) sendBoundary(dir int, load float64, iterTag int) {
	peer := n.rank - 1
	if dir == dirRight {
		peer = n.rank + 1
	}
	if peer < 0 || peer >= n.p {
		return
	}
	if n.cfg.Mode == AIAC && n.env.Now() < n.sendBusyUntil[dir] {
		n.outc.suppressed++
		return
	}
	pos := n.startC
	if dir == dirRight {
		pos = n.endC - n.halo
	}
	msg := n.newMsg()
	for i := 0; i < n.halo; i++ {
		// mid-iteration sends happen before the buf→val swap (freshest
		// values in buf), end-of-iteration sends after it (freshest in
		// val); newest() picks the right one.
		msg.Comps = append(msg.Comps, append(n.reuse()[:0], n.newest(pos+i)...))
	}
	msg.Iter, msg.Pos, msg.Load = iterTag, pos, load
	kindEv := trace.SendLeft
	if dir == dirRight {
		kindEv = trace.SendRight
	}
	// Every send-describing trace event reads its T0 before the send: on the
	// real-time runtimes Send may block on a socket write, and a clock read
	// after it can land past the receiver's delivery stamp.
	sendT := n.env.Now()
	arrival := n.env.Send(peer, kindBoundary, msg, trajBytes(n.halo, n.trajLen))
	n.sendBusyUntil[dir] = arrival
	n.outc.msgsBoundary++
	if n.traceOn() {
		n.env.Trace(trace.Event{
			T0: sendT, T1: arrival, Node: n.rank, To: peer,
			Kind: kindEv, Iter: iterTag, Seq: n.env.LastSendSeq(),
		})
	}
}

// newest returns the most recently computed trajectory of an owned
// component: during a sweep (before the swap) that is buf, afterwards val.
func (n *node) newest(j int) []float64 {
	if n.inSweep {
		return n.buf.get(j)
	}
	return n.val.get(j)
}

// drain processes every pending message without blocking.
func (n *node) drain() {
	for {
		m, ok := n.env.Recv()
		if !ok {
			return
		}
		n.det.Handle(m)
	}
}

// waitNeighbors blocks until both existing neighbors' iteration-k halo data
// has arrived (the synchronous-iteration condition of SISC/SIAC). It
// returns false when the node should stop.
func (n *node) waitNeighbors(k int) bool {
	t0 := n.env.Now()
	waited := false
	for {
		ready := true
		if n.rank > 0 && n.nbIter[dirLeft] < k {
			ready = false
		}
		if n.rank < n.p-1 && n.nbIter[dirRight] < k {
			ready = false
		}
		if ready {
			if waited && n.traceOn() {
				n.env.Trace(trace.Event{
					T0: t0, T1: n.env.Now(), Node: n.rank, To: -1,
					Kind: trace.Idle, Iter: k,
				})
			}
			return true
		}
		if n.det.Halted() || n.env.Stopped() {
			return false
		}
		m, ok := n.env.RecvWait()
		if !ok {
			return false
		}
		waited = true
		n.det.Handle(m)
	}
}

// handleData dispatches one data-plane message; detection messages go to
// n.det, which hands this method the rest.
func (n *node) handleData(m runenv.Msg) {
	n.msgsRecv++
	switch m.Kind {
	case kindBoundary:
		n.recvBoundary(m)
	case kindLBData:
		n.recvLBData(m)
	case kindLBAck:
		n.recvLBAck(m)
	case kindLBReject:
		n.recvLBReject(m)
	}
}

// recvBoundary integrates a halo update after validating its global
// positions against the expected range; mismatches are dropped but the
// attached load estimate and iteration tag are always recorded
// (Algorithm 7).
func (n *node) recvBoundary(m runenv.Msg) {
	b := m.Payload.(*boundaryMsg)
	dir, ok := n.dirOf(m.From)
	if !ok {
		return
	}
	n.nbLoad[dir] = b.Load
	n.nbLoadValid[dir] = true
	if b.Iter > n.nbIter[dir] {
		n.nbIter[dir] = b.Iter
	}
	expect := n.startC - n.halo
	if dir == dirRight {
		expect = n.endC
	}
	// Drop a halo whose ranges are shifting under load balancing, and a
	// reordered or duplicated stale one: fresher data is already integrated.
	if b.Pos != expect || len(b.Comps) != n.halo || b.Iter < n.nbHaloIter[dir] {
		n.dropMsg(b)
		return
	}
	n.nbHaloIter[dir] = b.Iter
	n.lastHaloT[dir] = n.env.Now()
	for i, tr := range b.Comps {
		j := b.Pos + i
		old := n.val.get(j)
		// What the next sweep reads here shares with what the last one read
		// whatever old shared with it and tr shares with old. (set puts the
		// count to 0, like every write to val that is not the sweep's.)
		same := min(n.val.sameAt(j), iterative.CommonPrefix(old, tr))
		n.val.set(j, tr)
		n.val.setSame(j, same)
		// Rule 2: an equal-tag duplicate passes the check above and carries
		// the slices val already holds; replacing a buffer by itself frees
		// nothing. (Tags grow strictly per link, so once a fresher halo has
		// evicted a buffer, every late copy aliasing it is stale and dropped
		// unread.) Rule 3: until its answer arrives, a transfer's lbKeep holds
		// the shipped originals and the halo entries beside them by reference
		// for restoreLB, and the new halo range lies among them.
		n.evict(j, old, tr)
	}
	n.keepMsg(b)
}

// dropMsg is done with a boundary message recvBoundary did not integrate.
// Recycling rule 1: its buffers are recycled only where no second copy of it
// can exist. On vtime and rtime a duplicated copy carries the same slices, so
// under a duplicating plan they may sit in val already, or be about to.
func (n *node) dropMsg(b *boundaryMsg) {
	if !n.unique {
		return
	}
	for _, tr := range b.Comps {
		n.recycle(tr)
	}
	n.keepMsg(b)
}

// keepMsg puts a boundary message this node has read to the end into the
// run's list, for any node's next send, when no second copy of it can arrive:
// a duplicated copy is the same *boundaryMsg, and would be read after the
// next send rewrote it. The trajectories it carried are the caller's: in val,
// or recycled.
func (n *node) keepMsg(b *boundaryMsg) {
	if !n.unique {
		return
	}
	clear(b.Comps)
	*b = boundaryMsg{Comps: b.Comps[:0]}
	n.cfg.free.putMsg(b)
}

// newMsg returns a boundary message with no trajectories: one from the run's
// list, whose buffers (a dist worker's codec keeps a message with them) it
// recycles, else a fresh one.
func (n *node) newMsg() *boundaryMsg {
	b := n.cfg.free.getMsg()
	for _, tr := range b.Comps {
		n.recycle(tr)
	}
	clear(b.Comps)
	if b.Comps = b.Comps[:0]; b.Comps == nil {
		b.Comps = make([][]float64, 0, n.halo)
	}
	return b
}

// dirOf maps a sender rank to a chain direction.
func (n *node) dirOf(from int) (int, bool) {
	switch from {
	case n.rank - 1:
		return dirLeft, true
	case n.rank + 1:
		return dirRight, true
	default:
		return 0, false
	}
}

// updateLoadEst refreshes the node's (smoothed) load estimate from the
// iteration that just completed.
func (n *node) updateLoadEst() {
	var raw float64
	switch n.cfg.LB.Estimator {
	case loadbalance.EstimatorIterTime:
		raw = n.iterTime
	case loadbalance.EstimatorCount:
		raw = float64(n.endC - n.startC)
	default:
		raw = n.residual
	}
	alpha := n.cfg.LB.SmoothingFactor()
	if !n.loadEstInit {
		n.loadEst = raw
		n.loadEstInit = true
		return
	}
	n.loadEst = alpha*raw + (1-alpha)*n.loadEst
}

// sampleMetrics offers the post-sweep observation of this node to the
// telemetry sink (which decides whether to keep it).
func (n *node) sampleMetrics(s *metrics.Sink, res float64) {
	now := n.env.Now()
	pend := 0
	for dir := 0; dir < 2; dir++ {
		if n.lbPending[dir] {
			pend++
		}
	}
	s.Sample(n.rank, metrics.NodeSample{
		T:         now,
		Iter:      n.iter,
		Residual:  res,
		Count:     n.endC - n.startC,
		Queue:     n.env.Pending(),
		HaloAge:   n.haloAge(now),
		LBPending: pend,
		MsgsSent:  uint64(n.outc.msgsBoundary + n.outc.lbSent + n.outc.lbRetries),
		MsgsRecv:  uint64(n.msgsRecv),
		// Faults is resolved by the sink at FinishRun from the recorded
		// injection times, so it stays deterministic when sender processes
		// run concurrently with this sample.
		Work: n.outc.work,
		Busy: n.busyTime,
	})
}

// haloAge returns the age of the staler of the two directions' freshest
// integrated halo data. Before anything arrives from a direction the node is
// still computing on the t=0 initial values, so the age runs from the start.
// Nodes with no neighbors (P = 1) report 0.
func (n *node) haloAge(now float64) float64 {
	age := 0.0
	for dir := 0; dir < 2; dir++ {
		peer := n.rank - 1
		if dir == dirRight {
			peer = n.rank + 1
		}
		if peer < 0 || peer >= n.p {
			continue
		}
		if a := now - n.lastHaloT[dir]; a > age {
			age = a
		}
	}
	return age
}

// noteConv records a convergence-timeline event when the node's local
// convergence state flips (metrics enabled only).
func (n *node) noteConv(conv bool) {
	if s := n.cfg.Metrics; s != nil && conv != n.lastConv {
		name := "conv"
		if !conv {
			name = "relapse"
		}
		s.Event(n.env.Now(), n.rank, name, "")
		n.lastConv = conv
	}
}

func (n *node) traceOn() bool {
	if n.cfg.Trace == nil {
		return false
	}
	return n.cfg.TraceIters == 0 || n.iter < n.cfg.TraceIters
}

// evict recycles old, which tr has just replaced at position j of val, unless
// it is tr itself (recycling rule 2) or a pending transfer keeps it (rule 3).
func (n *node) evict(j int, old, tr []float64) {
	if !sameBuf(old, tr) && n.unkept(j, old) {
		n.recycle(old)
	}
}

// unkept reports whether tr, leaving val at position j, is not what a pending
// transfer keeps there by reference for its undo (recycling rule 3).
func (n *node) unkept(j int, tr []float64) bool {
	return !sameBuf(tr, n.kept(dirLeft, j)) && !sameBuf(tr, n.kept(dirRight, j))
}

// sameBuf reports whether a and b are one buffer (trajectories are whole
// allocations, never subslices of one another).
func sameBuf(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// maxFree is how many trajectory buffers, and as many boundary messages, a
// run's list keeps per rank it serves; a dist worker's list keeps 2 × maxFree
// more of each for its codec. A node next to a faster neighbour integrates
// more halos than it sends, and what it lets go of is what the neighbour
// draws for the sends it cannot otherwise fill. What does not fit goes to the
// GC. On the Table-1 solve a list bounded at 1 024 allocates no less.
const maxFree = 32

// recycle puts tr into the run's list, for any node's next send or scratch
// buffer. A trajectory buffer has one owner at a time — Env.Send hands a
// message's buffers to the receiver, which adopts them by reference — so the
// caller must know that nothing but this node can still reach tr: see
// recvBoundary's three rules, dropOwnership, pruneVal and adopt. Under a plan
// that duplicates messages a halo that arrived in one may have a second copy
// in flight, so only a fresher halo may then evict it (rule 2); where
// n.unique holds, a halo is this node's alone once integrated, and so are the
// buffers of a message it drops. Out of scope: the halo entries restoreLB
// displaces, and the trajectories of a transfer that is rejected or acked
// again (the shipper's lbResendMsg may still send them), go to the GC.
func (n *node) recycle(tr []float64) {
	n.cfg.free.putTraj(tr)
}

// reuse returns a trajLen buffer of arbitrary contents: one from the run's
// list if it has any, else a fresh one.
func (n *node) reuse() []float64 {
	if tr := n.cfg.free.getTraj(); tr != nil {
		return tr
	}
	return make([]float64, n.trajLen)
}

// scratch returns a zeroed buf entry for a component this node adopts.
func (n *node) scratch() []float64 {
	tr := n.reuse()
	clear(tr)
	return tr
}

// runFree is a run's list of spent boundary messages and loose trajLen
// buffers: one per Run, one per dist worker, shared by every node it hosts
// and, on a worker, by the codec. Whoever puts a message or a buffer in reads
// it no more; a message may carry the buffers its Comps holds (the codec
// keeps what it has encoded that way, and decodes arriving halos into them),
// and a node recycles those when it draws the message. The nodes of an rtime
// run, and a worker's connection reader, put and take concurrently, so a
// mutex guards the list; under vtime it is never contended. It is no
// sync.Pool: the GC empties those, and the allocation count of a
// virtual-time run would stop repeating. A nil *runFree keeps nothing.
type runFree struct {
	mu      sync.Mutex
	msgs    []*boundaryMsg
	trajs   [][]float64
	trajLen int
	max     int // bound on msgs and on trajs, each
	// poison fills what enters the list with NaN and impossible positions
	// (Config.poisonFree).
	poison bool
}

// newRunFree returns a list of trajLen buffers sized for ranks ranks.
func newRunFree(trajLen, ranks int, poison bool) *runFree {
	return &runFree{trajLen: trajLen, max: ranks * maxFree, poison: poison}
}

// putMsg keeps b, with the buffers its Comps holds, for a later send or
// decode.
func (f *runFree) putMsg(b *boundaryMsg) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.msgs) >= f.max {
		return
	}
	if f.poison {
		b.Iter, b.Pos, b.Load = math.MinInt, math.MinInt, math.NaN()
		for _, tr := range b.Comps {
			poisonTraj(tr)
		}
	}
	f.msgs = append(f.msgs, b)
}

// getMsg returns a kept boundary message, buffers and all, or a new empty
// one.
func (f *runFree) getMsg() *boundaryMsg {
	if f != nil {
		f.mu.Lock()
		defer f.mu.Unlock()
		if k := len(f.msgs) - 1; k >= 0 {
			b := f.msgs[k]
			f.msgs = f.msgs[:k]
			return b
		}
	}
	return &boundaryMsg{}
}

// putTraj keeps tr as a loose buffer, if it is trajLen long (which also
// turns away the nil of an absent position).
func (f *runFree) putTraj(tr []float64) {
	if f == nil || len(tr) != f.trajLen {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.trajs) >= f.max {
		return
	}
	if f.poison {
		poisonTraj(tr)
	}
	f.trajs = append(f.trajs, tr)
}

// getTraj returns a loose trajLen buffer of arbitrary contents, or nil.
func (f *runFree) getTraj() []float64 {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	k := len(f.trajs) - 1
	if k < 0 {
		return nil
	}
	tr := f.trajs[k]
	f.trajs = f.trajs[:k]
	return tr
}

func poisonTraj(tr []float64) {
	for i := range tr {
		tr[i] = math.NaN()
	}
}
