package detect

import (
	"aiac/internal/runenv"
)

// Client is the node-side half of the asynchronous detection protocol.
// The engine calls AfterIteration once per local iteration and routes
// detector messages through HandleMsg from its inbox-drain loop.
type Client struct {
	// DetectorID is the detector's process rank (P by convention).
	DetectorID int
	// Streak is how many consecutive locally-converged iterations a node
	// needs before it reports convergence (guards against transient dips).
	Streak int

	streak   int
	reported bool // last state sent to the detector (initially false)
	sentAny  bool
	halted   bool
	aborted  bool
}

// AfterIteration updates the streak with this iteration's local convergence
// and notifies the detector on state transitions.
func (c *Client) AfterIteration(env runenv.Env, locallyConverged bool) {
	if locallyConverged {
		c.streak++
	} else {
		c.streak = 0
	}
	conv := c.streak >= c.Streak
	if !c.sentAny && !conv {
		// the detector assumes "not converged" initially; no need to say so
		return
	}
	if !c.sentAny || conv != c.reported {
		note := "state-relapse"
		if conv {
			note = "state-conv"
		}
		sendCtrl(env, c.DetectorID, KindState, StateMsg{Conv: conv}, -1, note)
		c.reported = conv
		c.sentAny = true
	}
}

// HandleMsg processes a detector-protocol message. It returns true if the
// message belonged to the protocol (and was consumed).
func (c *Client) HandleMsg(env runenv.Env, m runenv.Msg) bool {
	switch m.Kind {
	case KindVerify:
		r := m.Payload.(RoundMsg)
		conv := c.streak >= c.Streak
		sendCtrl(env, c.DetectorID, KindConfirm, ConfirmMsg{Round: r.Round, Conv: conv}, -1, "confirm")
		return true
	case KindHalt:
		h := m.Payload.(HaltMsg)
		c.halted = true
		c.aborted = h.Aborted
		return true
	}
	return false
}

// Abort tells the detector this node hit a safety bound; the detector will
// halt everyone.
func (c *Client) Abort(env runenv.Env) {
	sendCtrl(env, c.DetectorID, KindAbort, nil, -1, "abort")
}

// Halted reports whether a HALT has been received.
func (c *Client) Halted() bool { return c.halted }

// Aborted reports whether the received HALT was an abort.
func (c *Client) Aborted() bool { return c.aborted }
