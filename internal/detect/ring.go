package detect

import (
	"aiac/internal/runenv"
)

// Ring-based decentralized convergence detection, adapted from Safra-style
// token termination detection: no coordinator process at all, matching the
// paper's preference for fully decentralized control.
//
// A token circulates around the logical ring 0 → 1 → … → P−1 → 0. Node 0
// launches a round once it is stably converged; every node ANDs into the
// token whether it is stably converged AND has not relapsed since the
// token's previous visit (its "dirty" flag, cleared at each visit). A round
// that returns clean is repeated once (the double-round rule); two
// consecutive clean rounds trigger a HALT that travels around the ring.
// Any relapse dirties the node and fails the next round.
const (
	// KindToken carries TokenMsg around the ring.
	KindToken = runenv.ControlKindBase + 50 + iota
	// KindRingHalt terminates the computation, forwarded around the ring.
	KindRingHalt
)

// TokenMsg is the circulating detection token.
type TokenMsg struct {
	Round int
	Clean bool
}

// RingHaltMsg ends the computation.
type RingHaltMsg struct {
	Aborted bool
}

// RingClient is the per-node state of the decentralized protocol. The
// engine calls AfterIteration once per local iteration and routes messages
// through HandleMsg.
type RingClient struct {
	// Rank and P identify this node on the ring.
	Rank, P int
	// Streak is the stable-convergence requirement (as in Client).
	Streak int
	// RetryIters is how many iterations node 0 waits after a failed
	// round before launching another (default 4).
	RetryIters int

	streak     int
	dirty      bool
	wasConv    bool
	round      int
	cleanRuns  int
	cooldown   int
	tokenOut   bool // node 0: a round is in flight
	halted     bool
	aborted    bool
	haltPassed bool
}

func (c *RingClient) retry() int {
	if c.RetryIters <= 0 {
		return 4
	}
	return c.RetryIters
}

func (c *RingClient) next() int { return (c.Rank + 1) % c.P }

func (c *RingClient) conv() bool { return c.streak >= c.Streak }

// AfterIteration updates the streak and, on node 0, launches token rounds.
func (c *RingClient) AfterIteration(env runenv.Env, locallyConverged bool) {
	if c.halted {
		return
	}
	if locallyConverged {
		c.streak++
	} else {
		c.streak = 0
	}
	if c.wasConv && !c.conv() {
		c.dirty = true // relapse since the token's last visit
	}
	c.wasConv = c.conv()

	if c.Rank != 0 || c.P == 1 {
		if c.Rank == 0 && c.P == 1 && c.conv() {
			// single node: stable convergence is global convergence
			c.halted = true
		}
		return
	}
	if c.cooldown > 0 {
		c.cooldown--
		return
	}
	if !c.tokenOut && c.conv() {
		c.round++
		c.tokenOut = true
		sendCtrl(env, c.next(), KindToken, TokenMsg{Round: c.round, Clean: !c.dirty}, -1, "token")
		c.dirty = false
	}
}

// HandleMsg processes ring-protocol messages; it reports whether the
// message belonged to the protocol.
func (c *RingClient) HandleMsg(env runenv.Env, m runenv.Msg) bool {
	switch m.Kind {
	case KindToken:
		tok := m.Payload.(TokenMsg)
		if c.halted {
			return true
		}
		if c.Rank == 0 {
			// the round came home
			c.tokenOut = false
			if tok.Round != c.round {
				return true // stale round
			}
			if tok.Clean && c.conv() && !c.dirty {
				c.cleanRuns++
				if c.cleanRuns >= 2 {
					c.halt(env, false)
					return true
				}
				// immediately launch the confirmation round
				c.round++
				c.tokenOut = true
				sendCtrl(env, c.next(), KindToken, TokenMsg{Round: c.round, Clean: true}, -1, "token")
				c.dirty = false
			} else {
				c.cleanRuns = 0
				c.cooldown = c.retry()
			}
			return true
		}
		tok.Clean = tok.Clean && c.conv() && !c.dirty
		c.dirty = false
		sendCtrl(env, c.next(), KindToken, tok, -1, "token")
		return true
	case KindRingHalt:
		h := m.Payload.(RingHaltMsg)
		wasHalted := c.halted
		c.halted = true
		c.aborted = c.aborted || h.Aborted
		// forward once; the message dies when it reaches a node that has
		// already halted (in particular its originator, closing the ring).
		if !wasHalted && !c.haltPassed {
			c.haltPassed = true
			sendCtrl(env, c.next(), KindRingHalt, h, -1, "ring-halt")
		}
		return true
	}
	return false
}

// halt ends the computation from this node, forwarding around the ring.
func (c *RingClient) halt(env runenv.Env, aborted bool) {
	c.halted = true
	c.aborted = aborted
	c.haltPassed = true
	sendCtrl(env, c.next(), KindRingHalt, RingHaltMsg{Aborted: aborted}, -1, "ring-halt")
}

// Abort halts the whole ring unconverged (safety bound hit).
func (c *RingClient) Abort(env runenv.Env) {
	if !c.halted {
		c.halt(env, true)
	}
}

// Halted reports whether a halt has been received or initiated.
func (c *RingClient) Halted() bool { return c.halted }

// Aborted reports whether the halt was an abort.
func (c *RingClient) Aborted() bool { return c.aborted }
