package loadbalance

// This file holds the protocol-safety core of the transfer handshake
// (data / ack / reject), factored out of the engine so its invariants can
// be unit- and fuzz-tested in isolation. On an unreliable network any of
// the three handshake messages can be lost, duplicated or reordered; the
// sender retransmits unresolved transfers, so the receiver must classify
// every incoming attempt idempotently: a transfer is integrated at most
// once, and once rejected it stays rejected forever. Without the second
// rule a retransmitted copy could be integrated *after* its rejection was
// sent, leaving the components owned by both sides.

// Disposition is the receiver-side verdict on one incoming transfer attempt.
type Disposition int

const (
	// Integrate: first acceptable attempt — adopt the components and ack.
	Integrate Disposition = iota
	// AckAgain: duplicate of an already-integrated transfer — resend the
	// ack (the previous one may have been lost), do not integrate again.
	AckAgain
	// Reject: unacceptable attempt, or a duplicate of a transfer already
	// rejected — (re)send the reject so the shipper restores ownership.
	Reject
)

// String names the disposition.
func (d Disposition) String() string {
	switch d {
	case Integrate:
		return "integrate"
	case AckAgain:
		return "ack-again"
	case Reject:
		return "reject"
	default:
		return "disposition(?)"
	}
}

// RecvLedger is the receiver-side memory of the handshake. The zero value
// is ready to use. It is not safe for concurrent use; the engine keeps one
// per node, touched only by that node's process.
type RecvLedger struct {
	integrated map[uint64]struct{}
	rejected   map[uint64]struct{}
}

// Classify decides the fate of an incoming transfer attempt with the given
// id. attachOK reports whether the transfer is acceptable right now (its
// positions attach to the receiver's current range and no crossing transfer
// is pending). fresh is true when this id was never seen before — callers
// use it to keep statistics free of retransmission noise.
//
// The verdict for an id is final: later attempts of an integrated transfer
// yield AckAgain and of a rejected transfer Reject, regardless of attachOK.
func (l *RecvLedger) Classify(id uint64, attachOK bool) (d Disposition, fresh bool) {
	if _, ok := l.integrated[id]; ok {
		return AckAgain, false
	}
	if _, ok := l.rejected[id]; ok {
		return Reject, false
	}
	if !attachOK {
		if l.rejected == nil {
			l.rejected = make(map[uint64]struct{})
		}
		l.rejected[id] = struct{}{}
		return Reject, true
	}
	if l.integrated == nil {
		l.integrated = make(map[uint64]struct{})
	}
	l.integrated[id] = struct{}{}
	return Integrate, true
}
