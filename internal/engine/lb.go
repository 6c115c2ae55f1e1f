package engine

import (
	"fmt"

	"aiac/internal/fault"
	"aiac/internal/loadbalance"
	"aiac/internal/runenv"
	"aiac/internal/trace"
)

// tryLB implements TryLeftLB/TryRightLB (Algorithm 5): if this node's load
// exceeds the neighbor's by more than the threshold ratio, ship part of the
// boundary components to it, plus `halo` extra dependency components whose
// values the receiver needs (they stay owned and computed here). The
// transfer is optimistic: the receiver answers with an ack (integrate) or a
// reject (crossing transfer / stale position), and ownership of the shipped
// components is provisional until then. It returns true when a transfer was
// initiated.
func (n *node) tryLB(dir int) bool {
	peer := n.rank - 1
	if dir == dirRight {
		peer = n.rank + 1
	}
	if peer < 0 || peer >= n.p {
		return false
	}
	// "the second test detects if a communication from a previous load
	// balancing is not finished yet" (Algorithm 4).
	if n.lbPending[dir] {
		return false
	}
	if !n.nbLoadValid[dir] {
		return false
	}
	nbLocal := n.endC - n.startC
	count := n.cfg.LB.AmountToSend(n.loadEst, n.nbLoad[dir], nbLocal)
	if count <= 0 {
		return false
	}
	// the halo dependency components must stay here
	if nbLocal-count < n.halo {
		count = nbLocal - n.halo
		if count <= 0 {
			return false
		}
	}

	// keep holds everything needed to undo the transfer on a reject: the
	// shipped components AND the old halo entries next to them, which a
	// later ack-triggered prune would otherwise discard.
	keep := &n.lbKeep[dir]
	var pos int
	if dir == dirLeft {
		// ship our first `count` components + the next `halo` as deps
		pos = n.startC
		keep.lo = pos - n.halo
	} else {
		// deps first, then our last `count` components
		pos = n.endC - count - n.halo
		keep.lo = pos + n.halo
	}
	// The shipped copies come from the free list and are the receiver's:
	// lbResendMsg shares them across retransmissions, and nothing here reads
	// or recycles them again.
	comps := make([][]float64, 0, count+n.halo)
	for j := pos; j < pos+count+n.halo; j++ {
		comps = append(comps, append(n.reuse()[:0], n.val.get(j)...))
	}
	for j := keep.lo; j < keep.lo+count+n.halo; j++ {
		keep.trs = append(keep.trs, n.val.get(j))
	}
	if dir == dirLeft {
		n.dropOwnership(n.startC, n.startC+count)
		n.startC += count
	} else {
		n.dropOwnership(n.endC-count, n.endC)
		n.endC -= count
	}

	n.xferSeq++
	id := uint64(n.rank+1)<<32 | n.xferSeq
	n.lbPending[dir] = true
	n.lbPendingPos[dir] = pos
	n.lbPendingCount[dir] = count
	n.lbPendingSent[dir] = n.env.Now()
	n.lbXferID[dir] = id
	n.lbPendingIter[dir] = n.iter
	n.lbRetryAfter[dir] = lbRetryBase * n.cfg.LB.Period
	ownLo, ownHi := n.pendingOwnRange(dir)
	n.ownLog(fault.OwnShip, ownLo, ownHi, id)

	msg := lbDataMsg{XferID: id, Pos: pos, Count: count, Comps: comps, Load: n.loadEst}
	n.lbResendMsg[dir] = msg
	sendT := n.env.Now()
	arrival := n.env.Send(peer, kindLBData, msg, trajBytes(count+n.halo, n.trajLen))
	n.outc.lbSent++
	if n.traceOn() {
		n.env.Trace(trace.Event{
			T0: sendT, T1: arrival, Node: n.rank, To: peer,
			Kind: trace.SendLB, Iter: n.iter, Note: fmt.Sprintf("ship %d", count),
			Seq: n.env.LastSendSeq(), Xfer: id,
		})
	}
	// Algorithm 5: "OkToTryLB = 20; LBDone = true"
	n.okToTry = n.cfg.LB.Period
	n.lbDone = true
	return true
}

// Retransmission policy for unresolved transfers: the first retry fires
// after lbRetryBase LB periods without an answer, then the wait doubles up
// to lbRetryCap periods. On a fault-free network answers arrive within a
// flight time, so retries fire only on genuinely slow links — where the
// receiver ledger's at-most-once guarantee makes the duplicate harmless.
const (
	lbRetryBase = 2
	lbRetryCap  = 16
)

// lbRetry retransmits unanswered transfers (Algorithm 5 hardened for lossy
// links): a dropped data, ack or reject message would otherwise leave the
// transfer pending forever, freezing both the shipped components and all
// future balancing in that direction.
func (n *node) lbRetry() {
	for dir := 0; dir < 2; dir++ {
		if !n.lbPending[dir] {
			continue
		}
		if n.iter-n.lbPendingIter[dir] < n.lbRetryAfter[dir] {
			continue
		}
		peer := n.rank - 1
		if dir == dirRight {
			peer = n.rank + 1
		}
		msg := n.lbResendMsg[dir]
		msg.Load = n.loadEst // refresh the estimate; the trajectories stay the shipped snapshot
		sendT := n.env.Now()
		arrival := n.env.Send(peer, kindLBData, msg, trajBytes(msg.Count+n.halo, n.trajLen))
		n.outc.lbRetries++
		n.lbPendingIter[dir] = n.iter
		if next := n.lbRetryAfter[dir] * 2; next <= lbRetryCap*n.cfg.LB.Period {
			n.lbRetryAfter[dir] = next
		}
		if n.traceOn() {
			n.env.Trace(trace.Event{
				T0: sendT, T1: arrival, Node: n.rank, To: peer,
				Kind: trace.SendLB, Iter: n.iter, Note: fmt.Sprintf("lb-retry %d", msg.Count),
				Seq: n.env.LastSendSeq(), Xfer: n.lbXferID[dir],
			})
		}
	}
}

// dropOwnership removes [lo, hi) from the owned bookkeeping. Trajectory
// values within the new halo range survive in val as (stale) halo entries;
// everything else is pruned.
func (n *node) dropOwnership(lo, hi int) {
	for j := lo; j < hi; j++ {
		n.recycle(n.buf.get(j)) // sends copy and lbKeep takes val: nothing else references scratch
		n.buf.del(j)
	}
	// pruning of val happens lazily in pruneVal after the range moves
}

// pruneVal discards val entries outside [startC-halo, endC+halo) and
// recycles them, save those a pending transfer keeps (rule 3). Entries in
// [ownLo, ownHi) are trajectories this node computed, which no message
// carried; the rest are halos a message may have brought, recycled only where
// no second copy of it can exist.
func (n *node) pruneVal(ownLo, ownHi int) {
	lo, hi := n.startC-n.halo, n.endC+n.halo
	wlo, whi := n.val.window()
	for j := wlo; j < whi; j++ {
		if j >= lo && j < hi || !n.unique && (j < ownLo || j >= ownHi) {
			continue
		}
		if tr := n.val.get(j); n.unkept(j, tr) {
			n.recycle(tr)
		}
	}
	n.val.prune(lo, hi)
}

// adopt stores at position j of val a trajectory a transfer brought. Attach
// lands beside the owned range, so what it displaces is a halo entry, evicted
// only where no second copy of the message that brought it can exist.
func (n *node) adopt(j int, tr []float64) {
	old := n.val.get(j)
	n.val.set(j, tr)
	if n.unique {
		n.evict(j, old, tr)
	}
}

// recvLBData handles an incoming transfer (Algorithm 6 plus the ack/reject
// handshake): positions must attach exactly to this node's current range,
// and a node with its own unresolved transfer toward that neighbor rejects
// (two crossing transfers would tear the ranges apart). The receiver ledger
// makes the handshake idempotent on an unreliable network: a transfer is
// integrated at most once (a duplicate just re-acks, in case the first ack
// was lost) and a rejection is final (a retransmitted copy can never be
// integrated after its reject was sent, which would double-own the
// components once the shipper restores them).
func (n *node) recvLBData(m runenv.Msg) {
	d := m.Payload.(lbDataMsg)
	dir, ok := n.dirOf(m.From)
	if !ok {
		return
	}
	n.nbLoad[dir] = d.Load
	n.nbLoadValid[dir] = true

	attachOK := !n.lbPending[dir]
	if dir == dirLeft {
		// from the left: deps first, owned last; must attach at startC
		if d.Pos+n.halo+d.Count != n.startC {
			attachOK = false
		}
	} else {
		// from the right: owned first, deps last; must attach at endC
		if d.Pos != n.endC {
			attachOK = false
		}
	}
	if len(d.Comps) != d.Count+n.halo || d.Count < 1 {
		attachOK = false
	}
	disp, fresh := n.lbLedger.Classify(d.XferID, attachOK)
	switch disp {
	case loadbalance.AckAgain:
		n.sendLBCtrl(m.From, kindLBAck, d, "lb-ack-again")
		return
	case loadbalance.Reject:
		n.sendLBCtrl(m.From, kindLBReject, d, "lb-reject")
		if fresh {
			n.outc.lbRejected++
			if n.traceOn() {
				n.env.Trace(trace.Event{
					T0: n.env.Now(), T1: n.env.Now(), Node: n.rank, To: m.From,
					Kind: trace.Mark, Iter: n.iter, Note: "lb-reject", Xfer: d.XferID,
				})
			}
		}
		return
	}

	t0 := n.env.Now()
	if dir == dirLeft {
		for i := 0; i < n.halo; i++ {
			n.adopt(d.Pos+i, d.Comps[i]) // new left halo (dependencies)
		}
		for i := 0; i < d.Count; i++ {
			j := d.Pos + n.halo + i
			n.adopt(j, d.Comps[n.halo+i])
			n.buf.set(j, n.scratch())
		}
		n.startC = d.Pos + n.halo
	} else {
		for i := 0; i < d.Count; i++ {
			j := d.Pos + i
			n.adopt(j, d.Comps[i])
			n.buf.set(j, n.scratch())
		}
		for i := 0; i < n.halo; i++ {
			n.adopt(d.Pos+d.Count+i, d.Comps[d.Count+i]) // new right halo
		}
		n.endC = d.Pos + d.Count
	}
	if dir == dirLeft {
		n.ownLog(fault.OwnAdopt, d.Pos+n.halo, d.Pos+n.halo+d.Count, d.XferID)
	} else {
		n.ownLog(fault.OwnAdopt, d.Pos, d.Pos+d.Count, d.XferID)
	}
	n.pruneVal(0, 0) // every entry beyond the new range is a halo or kept
	n.sendLBCtrl(m.From, kindLBAck, d, "lb-ack")
	n.lbDone = true
	// Receiver cooldown (a refinement over the paper, see DESIGN.md): a
	// node that just received components waits half a period before
	// initiating its own transfer, damping receive-then-return ping-pong
	// while still letting work cascade down the chain.
	if half := n.cfg.LB.Period / 2; n.okToTry < half {
		n.okToTry = half
	}
	n.outc.lbRecv++
	n.outc.compsMoved += d.Count
	if n.traceOn() {
		n.env.Trace(trace.Event{
			T0: t0, T1: n.env.Now(), Node: n.rank, To: -1,
			Kind: trace.Balance, Iter: n.iter, Note: fmt.Sprintf("recv %d", d.Count),
			Xfer: d.XferID,
		})
	}
}

// sendLBCtrl answers transfer d (ack/reject) and records the answer as a
// Control transfer so the critical-path walk can follow the edge back to the
// receiver's decision.
func (n *node) sendLBCtrl(peer, kind int, d lbDataMsg, note string) {
	sendT := n.env.Now()
	arrival := n.env.Send(peer, kind, lbCtrlMsg{XferID: d.XferID, Pos: d.Pos, Count: d.Count}, msgHeaderBytes)
	if !n.traceOn() {
		return
	}
	n.env.Trace(trace.Event{
		T0: sendT, T1: arrival, Node: n.rank, To: peer,
		Kind: trace.Control, Iter: n.iter, Note: note,
		Seq: n.env.LastSendSeq(), Xfer: d.XferID,
	})
}

// recvLBAck finalizes one of our transfers: the receiver integrated it, so
// the provisional copies can be dropped. Answers are matched by transfer
// id, so duplicated or reordered control messages for older transfers are
// ignored.
func (n *node) recvLBAck(m runenv.Msg) {
	dir, ok := n.dirOf(m.From)
	if !ok || !n.lbPending[dir] {
		return
	}
	c := m.Payload.(lbCtrlMsg)
	if c.XferID != n.lbXferID[dir] {
		return // stale answer to an older transfer
	}
	lo, hi := n.pendingOwnRange(dir)
	n.ownLog(fault.OwnFinalize, lo, hi, c.XferID)
	n.lbPending[dir] = false
	n.lbKeep[dir].drop()
	n.lbResendMsg[dir] = lbDataMsg{}
	n.pruneVal(lo, hi)
	n.lbFlightBackoff(dir)
}

// lbFlightBackoff implements the paper's §6 condition 2 adaptively: when a
// completed transfer's flight time (send to acknowledgment) exceeds a whole
// period worth of iterations, balancing is counterproductive — components
// are frozen in flight long enough to come back stale and restart
// convergence bursts. The next attempt is pushed out proportionally.
func (n *node) lbFlightBackoff(dir int) {
	if n.iterTime <= 0 {
		return
	}
	flight := n.env.Now() - n.lbPendingSent[dir]
	period := n.cfg.LB.Period
	if flight <= float64(period)*n.iterTime {
		return
	}
	wait := int(flight / n.iterTime)
	if max := 20 * period; wait > max {
		wait = max
	}
	if wait > n.okToTry {
		n.okToTry = wait
	}
}

// recvLBReject undoes one of our transfers: the receiver could not
// integrate it (its range moved, or transfers crossed), so ownership of the
// shipped components is restored here. Their trajectories are the values
// from the moment of shipping — stale by a few iterations, which the AIAC
// model tolerates by construction.
func (n *node) recvLBReject(m runenv.Msg) {
	dir, ok := n.dirOf(m.From)
	if !ok || !n.lbPending[dir] {
		return
	}
	c := m.Payload.(lbCtrlMsg)
	if c.XferID != n.lbXferID[dir] {
		return // stale answer to an older transfer
	}
	lo, hi := n.pendingOwnRange(dir)
	n.ownLog(fault.OwnRestore, lo, hi, c.XferID)
	n.restoreLB(dir)
	n.lbDone = true
}

// restoreLB re-adopts the components of an unresolved transfer in the given
// direction, including the halo entries saved alongside them (the neighbor's
// next boundary message refreshes those stale values).
func (n *node) restoreLB(dir int) {
	count := n.lbPendingCount[dir]
	pos := n.lbPendingPos[dir]
	ownLo, ownHi := pos, pos+count
	if dir == dirRight {
		ownLo, ownHi = pos+n.halo, pos+n.halo+count
	}
	keep := &n.lbKeep[dir]
	for i, tr := range keep.trs {
		if tr == nil {
			continue // a halo position that held nothing
		}
		j := keep.lo + i
		n.val.set(j, tr)
		if j >= ownLo && j < ownHi {
			n.buf.set(j, n.scratch())
		}
	}
	if dir == dirLeft {
		n.startC -= count
	} else {
		n.endC += count
	}
	n.lbPending[dir] = false
	keep.drop()
	n.lbResendMsg[dir] = lbDataMsg{}
}

// lbUndo is what an unresolved transfer keeps to undo itself: the shipped
// trajectories and the halo entries beside them, by reference. They are one
// contiguous range of positions, [lo, lo+len(trs)): [startC−halo,
// startC+count) for a left transfer, [endC−count, endC+halo) for a right
// one. An entry is nil where the halo held nothing. The backing array is
// reused by the next transfer in the same direction.
type lbUndo struct {
	lo  int
	trs [][]float64
}

// kept returns the trajectory the transfer in direction dir keeps for
// position j, or nil.
func (n *node) kept(dir, j int) []float64 {
	k := &n.lbKeep[dir]
	if i := j - k.lo; i >= 0 && i < len(k.trs) {
		return k.trs[i]
	}
	return nil
}

// drop forgets the kept trajectories once the transfer is resolved.
func (k *lbUndo) drop() {
	clear(k.trs)
	k.trs = k.trs[:0]
}
