package engine

import (
	"fmt"
	"math"

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

	// haltedOK is true when this node halted through successful
	// convergence detection (used by the decentralized ring protocol,
	// which has no central detector to report the outcome).
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
	det  int // detector rank

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
	// free holds up to maxFree trajectory buffers nothing else references;
	// see recycle.
	free [][]float64

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
	lbKeep         [2]map[int][]float64
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

	pendingGo *detect.GoMsg

	client convDetector
	halted bool

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
		det:        cfg.P,
		prob:       cfg.Problem,
		halo:       cfg.Problem.Halo(),
		m:          cfg.Problem.Components(),
		trajLen:    cfg.Problem.TrajLen(),
		nbIter:     [2]int{-1, -1},
		nbHaloIter: [2]int{-1, -1},
		okToTry:    cfg.LBWarmup,
	}
	n.getFn = n.get
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
	if cfg.Mode != SISC {
		if cfg.Detection == DetectRing {
			n.client = &detect.RingClient{Rank: rank, P: cfg.P, Streak: cfg.ConvStreak}
		} else {
			n.client = &detect.Client{DetectorID: n.det, Streak: cfg.ConvStreak}
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

// convDetector is the node-side face of a convergence-detection protocol;
// satisfied by the centralized detect.Client and the decentralized
// detect.RingClient.
type convDetector interface {
	AfterIteration(env runenv.Env, locallyConverged bool)
	HandleMsg(env runenv.Env, m runenv.Msg) bool
	Abort(env runenv.Env)
	Halted() bool
	Aborted() bool
}

// run executes the node until global halt and returns its outcome.
func (n *node) run() *nodeOutcome {
	switch n.cfg.Mode {
	case SISC, SIAC:
		n.runSync()
	default:
		n.runAsync()
	}
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
			for j := range n.lbKeep[dir] {
				restored[j] = true
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
	if n.client != nil {
		n.outc.haltedOK = n.client.Halted() && !n.client.Aborted()
	} else {
		n.outc.haltedOK = n.halted
	}
	return &n.outc
}

// runAsync is the AIAC main loop: Algorithm 1 (unbalanced) extended with
// the Algorithm 4 load-balancing sections.
func (n *node) runAsync() {
	cfg := n.cfg
	for {
		n.drain()
		if n.halted || n.env.Stopped() {
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
		n.sweep(true)
		n.sendBoundary(dirRight, n.loadEst, n.iter)
		n.iter++
		conv := n.residual < cfg.Tol
		n.noteConv(conv)
		n.client.AfterIteration(n.env, conv)
		if n.iter >= cfg.MaxIter {
			n.client.Abort(n.env)
			n.waitHalt()
			return
		}
	}
}

// runSync is the SISC/SIAC main loop: iterations stay in lockstep through
// neighbor-data waits (both modes) and a global barrier (SISC only).
func (n *node) runSync() {
	cfg := n.cfg
	for {
		n.drain()
		if n.halted || n.env.Stopped() {
			return
		}
		k := n.iter
		n.sweep(cfg.Mode == SIAC)
		if cfg.Mode == SISC {
			n.sendBoundary(dirLeft, n.loadEst, k)
		}
		n.sendBoundary(dirRight, n.loadEst, k)
		n.iter++
		conv := n.residual < cfg.Tol
		n.noteConv(conv)
		if cfg.Mode == SISC {
			halt, ok := n.barrier(k, conv, n.iter >= cfg.MaxIter)
			if halt || !ok {
				return
			}
		} else {
			n.client.AfterIteration(n.env, conv)
			if n.iter >= cfg.MaxIter {
				n.client.Abort(n.env)
				n.waitHalt()
				return
			}
		}
		if !n.waitNeighbors(k) {
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
	n.env.Work(cfg.IterOverhead)
	n.outc.work += cfg.IterOverhead

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
		units := w*cfg.WorkScale + cfg.CompOverhead
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
	if h := cfg.History; h != nil {
		h.record(n.rank, HistoryPoint{
			Time: n.env.Now(), Iter: n.iter, Residual: res,
			Count: n.endC - n.startC, Work: n.outc.work,
		})
	}
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
	comps := make([][]float64, n.halo)
	for i := range comps {
		// mid-iteration sends happen before the buf→val swap (freshest
		// values in buf), end-of-iteration sends after it (freshest in
		// val); newest() picks the right one.
		comps[i] = append(n.reuse()[:0], n.newest(pos+i)...)
	}
	kindEv := trace.SendLeft
	if dir == dirRight {
		kindEv = trace.SendRight
	}
	msg := boundaryMsg{Iter: iterTag, Pos: pos, Comps: comps, Load: load}
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
		n.handleMsg(m)
	}
}

// waitHalt blocks until the detector halts the system.
func (n *node) waitHalt() {
	for !n.halted {
		m, ok := n.env.RecvWait()
		if !ok {
			return
		}
		n.handleMsg(m)
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
		if n.halted || n.env.Stopped() {
			return false
		}
		m, ok := n.env.RecvWait()
		if !ok {
			return false
		}
		waited = true
		n.handleMsg(m)
	}
}

// barrier implements the SISC global barrier through the coordinator,
// reporting convergence; it returns halt=true when the coordinator ends
// the computation.
func (n *node) barrier(k int, conv, abort bool) (halt, ok bool) {
	sendT := n.env.Now()
	arr := n.env.Send(n.det, detect.KindBarrierArrive,
		detect.ArriveMsg{Iter: k, Conv: conv, Abort: abort}, msgHeaderBytes)
	if n.traceOn() {
		n.env.Trace(trace.Event{
			T0: sendT, T1: arr, Node: n.rank, To: n.det,
			Kind: trace.Control, Iter: k, Note: "barrier-arrive", Seq: n.env.LastSendSeq(),
		})
	}
	t0 := n.env.Now()
	for {
		if g := n.pendingGo; g != nil && g.Iter == k {
			n.pendingGo = nil
			if n.traceOn() {
				n.env.Trace(trace.Event{
					T0: t0, T1: n.env.Now(), Node: n.rank, To: -1,
					Kind: trace.Idle, Iter: k, Note: "barrier",
				})
			}
			if g.Halt {
				n.halted = true
			}
			return g.Halt, true
		}
		m, okRecv := n.env.RecvWait()
		if !okRecv {
			return false, false
		}
		n.handleMsg(m)
	}
}

// handleMsg dispatches one received message.
func (n *node) handleMsg(m runenv.Msg) {
	if m.Kind >= runenv.ControlKindBase {
		if m.Kind == detect.KindBarrierGo {
			g := m.Payload.(detect.GoMsg)
			n.pendingGo = &g
			return
		}
		if n.client != nil {
			n.client.HandleMsg(n.env, m)
			if n.client.Halted() {
				n.halted = true
			}
		}
		return
	}
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
	b := m.Payload.(boundaryMsg)
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
	// Recycling rule 1: the buffers of a message dropped here are never
	// recycled. On vtime and rtime a duplicated copy carries the same slices,
	// so they may sit in val already, or be about to.
	if b.Pos != expect || len(b.Comps) != n.halo {
		return // the ranges are shifting under load balancing: drop
	}
	if b.Iter < n.nbHaloIter[dir] {
		return // reordered or duplicated stale halo: fresher data already integrated
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
		if !sameBuf(old, tr) && !sameBuf(old, n.lbKeep[dirLeft][j]) && !sameBuf(old, n.lbKeep[dirRight][j]) {
			n.recycle(old)
		}
	}
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

func cloneTraj(tr []float64) []float64 {
	out := make([]float64, len(tr))
	copy(out, tr)
	return out
}

// sameBuf reports whether a and b are one buffer (trajectories are whole
// allocations, never subslices of one another).
func sameBuf(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// maxFree bounds node.free, and with it what a node that integrates more
// halos than it sends can park: maxFree × trajLen × 8 bytes. What does not
// fit goes to the GC, as every replaced halo used to. On the Table-1 solve a
// cap of 8 allocates 2.5 % more than this one, and 64 nothing less.
const maxFree = 32

// recycle keeps tr for this node's next send or scratch buffer. A trajectory
// buffer has one owner at a time — Env.Send hands a message's buffers to the
// receiver, which adopts them by reference — so the caller must know that
// nothing but this node can still reach tr: see recvBoundary's three rules
// and dropOwnership. The list needs no lock (a node is one goroutine on every
// runtime) and is no sync.Pool (the GC empties those, and the allocation
// count of a virtual-time run would stop repeating). Out of scope: tryLB
// still clones what it ships (lbResendMsg shares the clones across
// retransmissions), a send still allocates its comps header and payload box,
// and a dist receiver what Dec.F64s decodes — those slices are the new halos.
func (n *node) recycle(tr []float64) {
	// The length check also turns away the nil of an absent position.
	if len(tr) != n.trajLen || len(n.free) >= maxFree {
		return
	}
	if n.cfg.poisonFree {
		for i := range tr {
			tr[i] = math.NaN()
		}
	}
	n.free = append(n.free, tr)
}

// reuse returns a trajLen buffer of arbitrary contents: a recycled one if
// there is any, else a fresh one.
func (n *node) reuse() []float64 {
	k := len(n.free) - 1
	if k < 0 {
		return make([]float64, n.trajLen)
	}
	tr := n.free[k]
	n.free = n.free[:k]
	return tr
}

// scratch returns a zeroed buf entry for a component this node adopts.
func (n *node) scratch() []float64 {
	tr := n.reuse()
	clear(tr)
	return tr
}
