package engine

import (
	"fmt"
	"slices"

	"aiac/internal/detect"
	"aiac/internal/dtime"
	"aiac/internal/fault"
	"aiac/internal/runenv"
	"aiac/internal/trace"
)

// Codec implements runenv.PayloadCodec for every message the solvers put on
// the wire: the engine's data plane (boundary halos and the LB handshake)
// plus the detection control plane (internal/detect's protocol messages).
// The distributed backend carries these payloads between worker processes;
// decoding is total — malformed bytes produce an error, never a panic — and
// returns the exact value types the solver and protocol code assert on.
//
// The zero Codec allocates every value it decodes. The one RunDistWorker
// builds holds the worker's run list, which the worker's nodes share:
// AppendPayload keeps each boundary message it has encoded, and
// DecodePayload decodes into the messages and buffers the list holds.
type Codec struct{ free *runFree }

var _ runenv.PayloadCodec = Codec{}

// EncodePayload is the one-shot form of AppendPayload.
func (c Codec) EncodePayload(kind int, payload any) ([]byte, error) {
	return c.AppendPayload(nil, kind, payload)
}

// AppendPayload implements runenv.PayloadCodec. The two kinds that carry
// trajectories grow dst once, to their exact size, before appending. A
// boundary message then goes to c's list, buffers and all: the sender reads
// it no more (sendBoundary builds one per send). A kindLBData payload never
// does, since the shipper's lbResendMsg sends the same trajectories again.
func (c Codec) AppendPayload(dst []byte, kind int, payload any) ([]byte, error) {
	e := &dtime.Enc{B: dst}
	switch kind {
	case kindBoundary:
		b := payload.(*boundaryMsg)
		e.B = slices.Grow(e.B, 8+8+trajsLen(b.Comps)+8)
		e.I64(int64(b.Iter))
		e.I64(int64(b.Pos))
		encTrajs(e, b.Comps)
		e.F64(b.Load)
		c.free.putMsg(b)
	case kindLBData:
		m := payload.(lbDataMsg)
		e.B = slices.Grow(e.B, 8+8+8+trajsLen(m.Comps)+8)
		e.U64(m.XferID)
		e.I64(int64(m.Pos))
		e.I64(int64(m.Count))
		encTrajs(e, m.Comps)
		e.F64(m.Load)
	case kindLBAck, kindLBReject:
		m := payload.(lbCtrlMsg)
		e.U64(m.XferID)
		e.I64(int64(m.Pos))
		e.I64(int64(m.Count))
	case detect.KindState:
		e.Bool(payload.(detect.StateMsg).Conv)
	case detect.KindVerify:
		e.I64(int64(payload.(detect.RoundMsg).Round))
	case detect.KindConfirm:
		m := payload.(detect.ConfirmMsg)
		e.I64(int64(m.Round))
		e.Bool(m.Conv)
	case detect.KindHalt:
		e.Bool(payload.(detect.HaltMsg).Aborted)
	case detect.KindAbort:
		// no payload
	case detect.KindBarrierArrive:
		m := payload.(detect.ArriveMsg)
		e.I64(int64(m.Iter))
		e.Bool(m.Conv)
		e.Bool(m.Abort)
	case detect.KindBarrierGo:
		m := payload.(detect.GoMsg)
		e.I64(int64(m.Iter))
		e.Bool(m.Halt)
		e.Bool(m.Aborted)
	case detect.KindToken:
		m := payload.(detect.TokenMsg)
		e.I64(int64(m.Round))
		e.Bool(m.Clean)
	case detect.KindRingHalt:
		e.Bool(payload.(detect.RingHaltMsg).Aborted)
	default:
		return nil, fmt.Errorf("engine: no wire encoding for message kind %d", kind)
	}
	return e.B, nil
}

// DecodePayload implements runenv.PayloadCodec, copying every value out of
// data: into a message and buffers from c's list where it has them. Bytes
// left over after the payload are an error.
func (c Codec) DecodePayload(kind int, data []byte) (any, error) {
	d := &dtime.Dec{B: data}
	var payload any
	switch kind {
	case kindBoundary:
		b := c.free.getMsg()
		b.Iter = int(d.I64())
		b.Pos = int(d.I64())
		b.Comps = decTrajs(d, b.Comps, c.free)
		b.Load = d.F64()
		payload = b
	case kindLBData:
		var m lbDataMsg
		m.XferID = d.U64()
		m.Pos = int(d.I64())
		m.Count = int(d.I64())
		m.Comps = decTrajs(d, nil, c.free)
		m.Load = d.F64()
		payload = m
	case kindLBAck, kindLBReject:
		var m lbCtrlMsg
		m.XferID = d.U64()
		m.Pos = int(d.I64())
		m.Count = int(d.I64())
		payload = m
	case detect.KindState:
		payload = detect.StateMsg{Conv: d.Bool()}
	case detect.KindVerify:
		payload = detect.RoundMsg{Round: int(d.I64())}
	case detect.KindConfirm:
		payload = detect.ConfirmMsg{Round: int(d.I64()), Conv: d.Bool()}
	case detect.KindHalt:
		payload = detect.HaltMsg{Aborted: d.Bool()}
	case detect.KindAbort:
		payload = nil
	case detect.KindBarrierArrive:
		payload = detect.ArriveMsg{Iter: int(d.I64()), Conv: d.Bool(), Abort: d.Bool()}
	case detect.KindBarrierGo:
		payload = detect.GoMsg{Iter: int(d.I64()), Halt: d.Bool(), Aborted: d.Bool()}
	case detect.KindToken:
		payload = detect.TokenMsg{Round: int(d.I64()), Clean: d.Bool()}
	case detect.KindRingHalt:
		payload = detect.RingHaltMsg{Aborted: d.Bool()}
	default:
		return nil, fmt.Errorf("engine: no wire decoding for message kind %d", kind)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("engine: decode payload kind %d: %w", kind, err)
	}
	if rest := len(d.Rest()); rest > 0 {
		return nil, fmt.Errorf("engine: decode payload kind %d: %d bytes past its end", kind, rest)
	}
	return payload, nil
}

func encTrajs(e *dtime.Enc, ts [][]float64) {
	e.U32(uint32(len(ts)))
	for _, t := range ts {
		e.F64s(t)
	}
}

// trajsLen is the number of bytes encTrajs appends for ts.
func trajsLen(ts [][]float64) int {
	n := 4
	for _, t := range ts {
		n += 4 + 8*len(t)
	}
	return n
}

// decTrajs decodes a trajectory list into the buffers ts holds, in order,
// then into buffers drawn from w, and lists them in ts's backing array; it
// allocates, each sized exactly, only what these cannot hold. ts and w may
// be nil. The buffers ts holds past the decoded count go back to w. The
// outer slice is sized from the declared count only as far as the bytes
// present could bear it out — every trajectory takes at least its 4-byte
// count prefix — so a corrupted count cannot balloon memory before erroring
// out. On error nothing of ts or of what it drew returns to w.
func decTrajs(d *dtime.Dec, ts [][]float64, w *runFree) [][]float64 {
	n := int(d.U32())
	if d.Err() != nil {
		return nil
	}
	out := ts[:0]
	if cap(ts) < n {
		out = make([][]float64, 0, min(n, len(d.Rest())/4))
	}
	for i := 0; i < n; i++ {
		var dst []float64
		if i < len(ts) {
			dst = ts[i]
		} else {
			dst = w.getTraj()
		}
		out = append(out, d.F64sInto(dst))
		if d.Err() != nil {
			return nil
		}
	}
	for i := n; i < len(ts); i++ {
		w.putTraj(ts[i])
		ts[i] = nil
	}
	if n == 0 {
		return nil
	}
	return out
}

// workerResult is one worker process's share of a distributed run: the
// outcomes of its hosted node ranks, the detector's Halted and Aborted when
// the detector rank lives on it, why its world stopped itself (zero: it did
// not), the faults its injector actually fired, and — when the worker has a
// sink, a trace log — its sealed telemetry as a JSONL export and its causal
// trace. It crosses the coordinator connection as the worker's opaque
// outcome blob.
type workerResult struct {
	ranks     []int // node ranks, aligned with outcomes
	outcomes  []*nodeOutcome
	hasDet    bool
	detOut    detect.Outcome
	cause     runenv.StopCause
	stats     fault.Stats
	telemetry []byte
	// trace carries Speedup, Dropped and Events; the coordinator knows the
	// rest of the worker's trace.ProcTrace (see RunDist).
	trace *trace.ProcTrace
}

// encodeWorkerResult encodes r into one buffer, sized exactly up front.
func encodeWorkerResult(r *workerResult) []byte {
	e := &dtime.Enc{B: make([]byte, 0, workerResultLen(r))}
	e.U32(uint32(len(r.outcomes)))
	for i, o := range r.outcomes {
		e.I64(int64(r.ranks[i]))
		encodeNodeOutcome(e, o)
	}
	e.Bool(r.hasDet)
	e.Bool(r.detOut.Halted)
	e.Bool(r.detOut.Aborted)
	e.U8(byte(r.cause))
	e.U64(r.stats.Dropped)
	e.U64(r.stats.Duplicated)
	e.U64(r.stats.Reordered)
	e.U64(r.stats.Spiked)
	e.U64(r.stats.Stalled)
	e.U64(r.stats.Slowed)
	e.Bytes(r.telemetry)
	e.Bool(r.trace != nil)
	if pt := r.trace; pt != nil {
		e.F64(pt.Speedup)
		e.U64(pt.Dropped)
		e.U32(uint32(len(pt.Events)))
		for _, ev := range pt.Events {
			e.F64(ev.T0)
			e.F64(ev.T1)
			e.I64(int64(ev.Node))
			e.I64(int64(ev.To))
			e.I64(int64(ev.Kind))
			e.I64(int64(ev.Iter))
			e.U32(uint32(len(ev.Note)))
			e.B = append(e.B, ev.Note...)
			e.U64(ev.Seq)
			e.I64(int64(ev.HaloL))
			e.I64(int64(ev.HaloR))
			e.U64(ev.Xfer)
		}
	}
	return e.B
}

// workerResultLen is the number of bytes encodeWorkerResult writes for r.
func workerResultLen(r *workerResult) int {
	n := 4 + 3 + 1 + 6*8 + 4 + len(r.telemetry) + 1
	for _, o := range r.outcomes {
		n += 8 + 4 + 8*len(o.positions) + trajsLen(o.trajs) + 4 + len(o.provisional) + 3*8 + 7*8 + 1
	}
	if pt := r.trace; pt != nil {
		n += 8 + 8 + 4 + len(pt.Events)*traceEventLen
		for _, ev := range pt.Events {
			n += len(ev.Note)
		}
	}
	return n
}

// traceEventLen is the fewest bytes one encoded trace event takes (an empty
// note): the bound a declared event count is checked against before it
// sizes anything.
const traceEventLen = 8*2 + 8*4 + 4 + 8 + 8*2 + 8

func decodeWorkerResult(b []byte) (*workerResult, error) {
	d := &dtime.Dec{B: b}
	r := &workerResult{}
	n := int(d.U32())
	for i := 0; i < n; i++ {
		if d.Err() != nil {
			break
		}
		r.ranks = append(r.ranks, int(d.I64()))
		r.outcomes = append(r.outcomes, decodeNodeOutcome(d))
	}
	r.hasDet = d.Bool()
	r.detOut.Halted = d.Bool()
	r.detOut.Aborted = d.Bool()
	r.cause = runenv.StopCause(d.U8())
	r.stats.Dropped = d.U64()
	r.stats.Duplicated = d.U64()
	r.stats.Reordered = d.U64()
	r.stats.Spiked = d.U64()
	r.stats.Stalled = d.U64()
	r.stats.Slowed = d.U64()
	r.telemetry = d.Bytes()
	if d.Bool() {
		pt := &trace.ProcTrace{Speedup: d.F64(), Dropped: d.U64()}
		n := int(d.U32())
		if d.Err() == nil && n > len(d.Rest())/traceEventLen {
			return nil, fmt.Errorf("engine: decode worker result: %d trace events in %d bytes", n, len(d.Rest()))
		}
		if d.Err() == nil && n > 0 {
			pt.Events = make([]trace.Event, n)
		}
		for i := range pt.Events {
			ev := &pt.Events[i]
			ev.T0 = d.F64()
			ev.T1 = d.F64()
			ev.Node = int(d.I64())
			ev.To = int(d.I64())
			ev.Kind = trace.Kind(d.I64())
			ev.Iter = int(d.I64())
			ev.Note = string(d.Bytes())
			ev.Seq = d.U64()
			ev.HaloL = int(d.I64())
			ev.HaloR = int(d.I64())
			ev.Xfer = d.U64()
		}
		r.trace = pt
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("engine: decode worker result: %w", err)
	}
	return r, nil
}

func encodeNodeOutcome(e *dtime.Enc, o *nodeOutcome) {
	e.U32(uint32(len(o.positions)))
	for _, p := range o.positions {
		e.I64(int64(p))
	}
	encTrajs(e, o.trajs)
	e.U32(uint32(len(o.provisional)))
	for _, b := range o.provisional {
		e.Bool(b)
	}
	e.I64(int64(o.iters))
	e.F64(o.work)
	e.F64(o.residual)
	e.I64(int64(o.lbSent))
	e.I64(int64(o.lbRecv))
	e.I64(int64(o.lbRejected))
	e.I64(int64(o.compsMoved))
	e.I64(int64(o.lbRetries))
	e.I64(int64(o.msgsBoundary))
	e.I64(int64(o.suppressed))
	e.Bool(o.haltedOK)
}

func decodeNodeOutcome(d *dtime.Dec) *nodeOutcome {
	o := &nodeOutcome{}
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		o.positions = append(o.positions, int(d.I64()))
	}
	o.trajs = decTrajs(d, nil, nil)
	n = int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		o.provisional = append(o.provisional, d.Bool())
	}
	o.iters = int(d.I64())
	o.work = d.F64()
	o.residual = d.F64()
	o.lbSent = int(d.I64())
	o.lbRecv = int(d.I64())
	o.lbRejected = int(d.I64())
	o.compsMoved = int(d.I64())
	o.lbRetries = int(d.I64())
	o.msgsBoundary = int(d.I64())
	o.suppressed = int(d.I64())
	o.haltedOK = d.Bool()
	return o
}
