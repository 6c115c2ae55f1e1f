package dtime

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"aiac/internal/runenv"
)

// Enc is an append-only binary encoder: fixed-width big-endian integers,
// IEEE-754 floats, and u32-length-prefixed byte strings. It is exported so
// higher layers (the engine's payload and outcome codecs) share one byte
// discipline with the transport.
type Enc struct{ B []byte }

// U8 appends one byte.
func (e *Enc) U8(v byte) { e.B = append(e.B, v) }

// Bool appends a flag byte (1/0).
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a big-endian uint32.
func (e *Enc) U32(v uint32) { e.B = binary.BigEndian.AppendUint32(e.B, v) }

// U64 appends a big-endian uint64.
func (e *Enc) U64(v uint64) { e.B = binary.BigEndian.AppendUint64(e.B, v) }

// I64 appends a big-endian int64 (two's complement).
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends an IEEE-754 binary64.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes appends a u32 length prefix and the bytes.
func (e *Enc) Bytes(p []byte) {
	e.U32(uint32(len(p)))
	e.B = append(e.B, p...)
}

// F64s appends a u32 count prefix and the values.
func (e *Enc) F64s(vs []float64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.F64(v)
	}
}

// ErrTruncated reports binary input that ended before the value it
// promised.
var ErrTruncated = errors.New("dtime: truncated binary value")

// Dec is the matching cursor decoder. Errors are sticky: after the first
// failure every read returns the zero value and Err() reports the cause, so
// call sites stay linear and a decoder can never read past the input.
type Dec struct {
	B   []byte
	off int
	err error
}

// Err returns the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

// Rest returns the not-yet-consumed tail of the input.
func (d *Dec) Rest() []byte { return d.B[d.off:] }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.B)-d.off < n {
		d.err = ErrTruncated
		return nil
	}
	p := d.B[d.off : d.off+n]
	d.off += n
	return p
}

// U8 reads one byte.
func (d *Dec) U8() byte {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool reads a flag byte.
func (d *Dec) Bool() bool { return d.U8() != 0 }

// U32 reads a big-endian uint32.
func (d *Dec) U32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

// U64 reads a big-endian uint64.
func (d *Dec) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

// I64 reads a big-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads an IEEE-754 binary64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bytes reads a u32-length-prefixed byte string. The returned slice aliases
// the input.
func (d *Dec) Bytes() []byte {
	n := int(d.U32())
	return d.take(n)
}

// F64s reads a u32-count-prefixed float64 slice.
func (d *Dec) F64s() []float64 {
	n := int(d.U32())
	if d.err != nil || n < 0 {
		return nil
	}
	// Bound the allocation by the bytes actually present: a corrupted
	// count must not allocate gigabytes before take() fails.
	if rem := len(d.B) - d.off; n > rem/8 {
		d.err = ErrTruncated
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = d.F64()
	}
	if d.err != nil {
		return nil
	}
	return vs
}

// Message envelope (FrameMsg payload): the runenv.Msg fields that cross the
// wire, followed by the codec-serialized application payload.
//
//	u32 from | u32 to | u32 kind | u32 modeled-bytes | f64 sendT | u64 seq |
//	u32 payload length | payload
const envelopeHeaderLen = 4*4 + 8 + 8

// appendEnvelope appends the envelope of a message bound for a remote rank,
// its payload encoded in place behind the header: through codec when there
// is one, otherwise the payload must be raw bytes (or nil).
func appendEnvelope(dst []byte, m runenv.Msg, codec runenv.PayloadCodec) ([]byte, error) {
	e := Enc{B: dst}
	e.U32(uint32(m.From))
	e.U32(uint32(m.To))
	e.U32(uint32(m.Kind))
	e.U32(uint32(m.Bytes))
	e.F64(m.SendT)
	e.U64(m.Seq)
	e.U32(0) // payload length, filled in below
	body := len(e.B)
	switch {
	case codec != nil:
		var err error
		if e.B, err = codec.AppendPayload(e.B, m.Kind, m.Payload); err != nil {
			return nil, fmt.Errorf("dtime: encode payload kind %d: %w", m.Kind, err)
		}
	case m.Payload != nil:
		b, ok := m.Payload.([]byte)
		if !ok {
			return nil, fmt.Errorf("dtime: no codec for payload type %T (kind %d)", m.Payload, m.Kind)
		}
		e.B = append(e.B, b...)
	}
	binary.BigEndian.PutUint32(e.B[body-4:], uint32(len(e.B)-body))
	return e.B, nil
}

// decodeEnvelope parses a FrameMsg payload. The application payload is
// returned still encoded; the caller runs it through its PayloadCodec.
func decodeEnvelope(body []byte) (m runenv.Msg, payload []byte, err error) {
	d := Dec{B: body}
	m.From = int(d.U32())
	m.To = int(d.U32())
	m.Kind = int(d.U32())
	m.Bytes = int(d.U32())
	m.SendT = d.F64()
	m.Seq = d.U64()
	payload = d.Bytes()
	if d.err != nil {
		return runenv.Msg{}, nil, fmt.Errorf("dtime: bad message envelope: %w", d.err)
	}
	return m, payload, nil
}

// EnvelopeInfo peeks at the addressing header of a FrameMsg payload without
// decoding the application payload — the fault-injecting connection wrapper
// uses it to key its per-link decisions.
func EnvelopeInfo(body []byte) (from, to, kind, bytes int, sendT float64, seq uint64, ok bool) {
	if len(body) < envelopeHeaderLen {
		return 0, 0, 0, 0, 0, 0, false
	}
	d := Dec{B: body}
	from = int(d.U32())
	to = int(d.U32())
	kind = int(d.U32())
	bytes = int(d.U32())
	sendT = d.F64()
	seq = d.U64()
	return from, to, kind, bytes, sendT, seq, true
}

// helloBody is the worker's check-in (FrameHello, JSON).
type helloBody struct {
	Worker  int    `json:"worker"`
	Pid     int    `json:"pid"`
	Ranks   []int  `json:"ranks"`
	ObsAddr string `json:"obs_addr,omitempty"`
}

// welcomeBody releases a worker to start (FrameWelcome, JSON).
type welcomeBody struct {
	RunID string `json:"run_id"`
}

func marshalJSONFrame(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All JSON frame bodies are plain structs of plain fields;
		// marshalling cannot fail short of a programming error.
		panic(fmt.Sprintf("dtime: marshal control frame: %v", err))
	}
	return b
}
