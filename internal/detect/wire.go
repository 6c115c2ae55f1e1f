package detect

import (
	"fmt"

	"aiac/internal/dtime"
)

// Wire encoding of the convergence-detection payloads, for runs where nodes
// and detector live in different OS processes (the dtime backend). The
// encoders and decoders pair off kind by kind; decoding returns the exact
// value types the protocol code asserts on.

// AppendPayload appends the wire form of a detection payload to dst. handled
// is false for kinds that are not detection kinds (the caller owns those).
func AppendPayload(dst []byte, kind int, payload any) (data []byte, handled bool, err error) {
	e := &dtime.Enc{B: dst}
	switch kind {
	case KindState:
		e.Bool(payload.(StateMsg).Conv)
	case KindVerify:
		e.I64(int64(payload.(RoundMsg).Round))
	case KindConfirm:
		m := payload.(ConfirmMsg)
		e.I64(int64(m.Round))
		e.Bool(m.Conv)
	case KindHalt:
		e.Bool(payload.(HaltMsg).Aborted)
	case KindAbort:
		// no payload
	case KindBarrierArrive:
		m := payload.(ArriveMsg)
		e.I64(int64(m.Iter))
		e.Bool(m.Conv)
		e.Bool(m.Abort)
	case KindBarrierGo:
		m := payload.(GoMsg)
		e.I64(int64(m.Iter))
		e.Bool(m.Halt)
		e.Bool(m.Aborted)
	case KindToken:
		m := payload.(TokenMsg)
		e.I64(int64(m.Round))
		e.Bool(m.Clean)
	case KindRingHalt:
		e.Bool(payload.(RingHaltMsg).Aborted)
	default:
		return nil, false, nil
	}
	return e.B, true, nil
}

// DecodePayload reconstructs a detection payload, copying every value out of
// data. handled is false for non-detection kinds.
func DecodePayload(kind int, data []byte) (payload any, handled bool, err error) {
	d := &dtime.Dec{B: data}
	switch kind {
	case KindState:
		payload = StateMsg{Conv: d.Bool()}
	case KindVerify:
		payload = RoundMsg{Round: int(d.I64())}
	case KindConfirm:
		payload = ConfirmMsg{Round: int(d.I64()), Conv: d.Bool()}
	case KindHalt:
		payload = HaltMsg{Aborted: d.Bool()}
	case KindAbort:
		payload = nil
	case KindBarrierArrive:
		payload = ArriveMsg{Iter: int(d.I64()), Conv: d.Bool(), Abort: d.Bool()}
	case KindBarrierGo:
		payload = GoMsg{Iter: int(d.I64()), Halt: d.Bool(), Aborted: d.Bool()}
	case KindToken:
		payload = TokenMsg{Round: int(d.I64()), Clean: d.Bool()}
	case KindRingHalt:
		payload = RingHaltMsg{Aborted: d.Bool()}
	default:
		return nil, false, nil
	}
	if err := d.Err(); err != nil {
		return nil, true, fmt.Errorf("detect: decode payload kind %d: %w", kind, err)
	}
	return payload, true, nil
}
