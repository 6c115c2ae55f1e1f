package detect

import (
	"aiac/internal/runenv"
	"aiac/internal/trace"
)

// ringRetry is how many iterations ring node 0 waits after a failed round
// before it launches another.
const ringRetry = 4

// Node is the node-side half of every protocol. The node calls Iterate once
// per local iteration and hands every message it receives between
// iterations to Handle; Iterate itself blocks where the protocol does (the
// SISC barrier, and the wait for HALT after an abort) and passes each
// data-plane message it receives meanwhile to Data.
type Node struct {
	Env      runenv.Env
	Protocol Protocol
	// P is the number of worker nodes; the coordinator, if any, is rank P.
	P int
	// Streak is how many consecutive locally converged iterations make a
	// node stably converged, which is what Central and Ring report (it
	// guards against transient dips). Barrier reports every iteration's own
	// verdict: the barrier keeps the nodes in lockstep, so the coordinator
	// sees the global residual of one iterate.
	Streak int
	// TraceIters gates the barrier's per-iteration trace events (the
	// arrival and the wait for the release) by the node's count of
	// completed iterations, as the node gates its own: only those of a node
	// that has completed fewer than TraceIters are recorded, 0 = all.
	TraceIters int
	// Data handles a data-plane message (kind below
	// runenv.ControlKindBase).
	Data func(runenv.Msg)

	streak int
	// halted and aborted are the protocol's verdict as this node knows it.
	// done is the node's own: it stops iterating. The two differ only for a
	// ring node that aborted, which stops at the first control message it
	// handles after its own HALT left (its HALT coming back around, or a
	// token still in flight).
	halted, aborted, done bool

	// Central: the last state reported to the coordinator, which assumes
	// "not converged" until told otherwise.
	reported bool

	// Ring: dirty records a relapse since the token's last visit; on node
	// 0, tokenOut says a round is in flight, round numbers the rounds,
	// cleanRuns counts consecutive clean ones and cooldown the iterations
	// left before the next launch.
	dirty, wasStable, tokenOut bool
	round, cleanRuns, cooldown int
}

// Iterate reports local iteration k: whether its residual is below the
// tolerance, and whether the node has hit its iteration bound, in which case
// the whole computation stops unconverged. It returns whether the node
// stops.
func (d *Node) Iterate(k int, conv, atMax bool) (stop bool) {
	if d.Protocol == Barrier {
		return d.barrier(k, conv, atMax)
	}
	if conv {
		d.streak++
	} else {
		d.streak = 0
	}
	stable := d.stable()
	if d.Protocol == Ring {
		d.ringIterate(stable)
	} else if stable != d.reported {
		note := "state-relapse"
		if stable {
			note = "state-conv"
		}
		sendCtrl(d.Env, d.P, KindState, StateMsg{Conv: stable}, -1, note)
		d.reported = stable
	}
	if atMax {
		d.abort()
		return true
	}
	return d.done
}

// Handle processes one message the node received: a control message is the
// protocol's, anything else goes to Data.
func (d *Node) Handle(m runenv.Msg) {
	if m.Kind < runenv.ControlKindBase {
		d.Data(m)
		return
	}
	switch m.Kind {
	case KindVerify:
		r := m.Payload.(RoundMsg)
		sendCtrl(d.Env, d.P, KindConfirm, ConfirmMsg{Round: r.Round, Conv: d.stable()}, -1, "confirm")
	case KindHalt:
		d.halted = true
		d.aborted = m.Payload.(HaltMsg).Aborted
	case KindToken:
		if !d.halted {
			d.token(m.Payload.(TokenMsg))
		}
	case KindRingHalt:
		h := m.Payload.(RingHaltMsg)
		// Forward once: the message dies at a node that has already halted,
		// in particular at its originator, closing the ring.
		if !d.halted {
			sendCtrl(d.Env, d.next(), KindRingHalt, h, -1, "ring-halt")
		}
		d.halted = true
		d.aborted = d.aborted || h.Aborted
	}
	// A KindBarrierGo handled here is a duplicate of a release the barrier
	// already consumed: the next one needs this node's arrival.
	d.done = d.halted
}

// Halted reports whether the node has stopped on a HALT.
func (d *Node) Halted() bool { return d.done }

// OK reports whether the computation halted converged, as far as this node
// knows: the ring's verdict, which has no coordinator to give one.
func (d *Node) OK() bool { return d.halted && !d.aborted }

func (d *Node) stable() bool { return d.streak >= d.Streak }

func (d *Node) next() int { return (d.Env.Rank() + 1) % d.P }

// abort stops the whole computation unconverged and waits for the HALT.
func (d *Node) abort() {
	switch d.Protocol {
	case Central:
		sendCtrl(d.Env, d.P, KindAbort, nil, -1, "abort")
	case Ring:
		if !d.halted {
			d.ringHalt(true)
		}
	}
	for !d.done {
		m, ok := d.Env.RecvWait()
		if !ok {
			return
		}
		d.Handle(m)
	}
}

// ringIterate records a relapse and, on node 0, launches token rounds.
//
// The ring protocol is adapted from Safra-style token termination
// detection. A token circulates around the logical ring 0 → 1 → … → P−1 → 0.
// Node 0 launches a round once it is stably converged; every node ANDs into
// the token whether it is stably converged AND has not relapsed since the
// token's previous visit. A round that returns clean is repeated once (the
// double-round rule); two consecutive clean rounds trigger a HALT that
// travels around the ring.
func (d *Node) ringIterate(stable bool) {
	if d.wasStable && !stable {
		d.dirty = true
	}
	d.wasStable = stable
	switch {
	case d.P == 1:
		// a single node: stable convergence is global convergence
		d.halted, d.done = stable, stable
	case d.Env.Rank() != 0:
	case d.cooldown > 0:
		d.cooldown--
	case !d.tokenOut && stable:
		d.launch(!d.dirty)
	}
}

// launch sends a new round's token from node 0.
func (d *Node) launch(clean bool) {
	d.round++
	d.tokenOut = true
	sendCtrl(d.Env, d.next(), KindToken, TokenMsg{Round: d.round, Clean: clean}, -1, "token")
	d.dirty = false
}

// token handles a visiting token: node 0 judges a round that came home, any
// other node adds its state and passes the token on.
func (d *Node) token(tok TokenMsg) {
	clean := tok.Clean && d.stable() && !d.dirty
	if d.Env.Rank() != 0 {
		tok.Clean = clean
		d.dirty = false
		sendCtrl(d.Env, d.next(), KindToken, tok, -1, "token")
		return
	}
	d.tokenOut = false
	switch {
	case tok.Round != d.round:
		// a stale round
	case !clean:
		d.cleanRuns = 0
		d.cooldown = ringRetry
	default:
		d.cleanRuns++
		if d.cleanRuns >= 2 {
			d.ringHalt(false)
		} else {
			d.launch(true) // the confirmation round, at once
		}
	}
}

// ringHalt ends the computation from this node; the HALT travels around the
// ring.
func (d *Node) ringHalt(aborted bool) {
	d.halted = true
	d.aborted = aborted
	sendCtrl(d.Env, d.next(), KindRingHalt, RingHaltMsg{Aborted: aborted}, -1, "ring-halt")
}

// barrier is SISC's global barrier: the node reports iteration k's verdict
// to the coordinator and waits for its release, which halts everyone exactly
// when every node's residual is below the tolerance, or one hit its bound.
func (d *Node) barrier(k int, conv, atMax bool) (stop bool) {
	traced := d.TraceIters == 0 || k+1 < d.TraceIters
	sendTraced(d.Env, traced, d.P, KindBarrierArrive, ArriveMsg{Iter: k, Conv: conv, Abort: atMax}, k, "barrier-arrive")
	t0 := d.Env.Now()
	for {
		m, ok := d.Env.RecvWait()
		if !ok {
			return true
		}
		if m.Kind != KindBarrierGo {
			d.Handle(m)
			continue
		}
		g := m.Payload.(GoMsg)
		if g.Iter != k {
			continue // a duplicate of an earlier release
		}
		if traced {
			now := d.Env.Now()
			d.Env.Trace(trace.Event{
				T0: t0, T1: now, Node: d.Env.Rank(), To: -1,
				Kind: trace.Idle, Iter: k, Note: "barrier",
			})
		}
		d.halted, d.aborted, d.done = g.Halt, g.Aborted, g.Halt
		return g.Halt
	}
}
