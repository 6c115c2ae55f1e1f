// Package dtime is the distributed multi-process backend for the runenv
// process model: each group of ranks runs in its own OS process (a worker),
// spawned and supervised by a coordinator, and messages between ranks on
// different workers travel over TCP as length-prefixed frames with a
// versioned binary codec.
//
// dtime is the transport and nothing else. A worker's ranks run on an
// rtime.World — the runtime rtime.Runner runs, hosting a share of the ranks —
// and the worker side of this package is that world's rtime.Link: dial and
// handshake, the frame and envelope codecs, the reader that feeds arrivals to
// World.Deliver, heartbeats, the stop hand-shake, trace shipping and the
// outcome. Ranks, clocks, mailboxes, waits and local fault fates live in
// internal/rtime only.
//
// dtime is deliberately application-agnostic: it moves runenv.Msg envelopes
// whose payloads are serialized through a runenv.PayloadCodec supplied by
// the caller, and it returns the workers' final outcomes as opaque byte
// blobs. The engine-level glue (building solver bodies in each worker,
// assembling the global Result at the coordinator) lives in internal/engine.
//
// Topology is a star: every worker holds one TCP connection to the
// coordinator, which relays cross-worker frames. TCP plus in-order relaying
// preserves the per-(from,to) FIFO guarantee of the runenv contract; an
// injected fault layer (see internal/fault.Conn) may break it on purpose.
package dtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// FrameVersion is the wire-protocol version carried by every frame. A
// receiver rejects frames from any other version: coordinator and workers
// are always spawned from the same binary, so a mismatch means corruption
// or a foreign peer, not a rolling upgrade.
const FrameVersion = 1

// Frame types.
const (
	// FrameHello is the worker's first frame: worker index, hosted ranks,
	// pid and observability address (JSON body, see helloBody).
	FrameHello = byte(iota + 1)
	// FrameWelcome releases a worker to start computing once every worker
	// has checked in (JSON body, see welcomeBody).
	FrameWelcome
	// FrameMsg carries one runenv message between ranks on different
	// workers (binary envelope, see encodeEnvelope).
	FrameMsg
	// FrameOutcome carries a worker's final outcome blob plus its final
	// local clock (binary: f64 endTime, then the blob).
	FrameOutcome
	// FrameStop is the global stop: coordinator → workers when the run is
	// complete (or must abort), worker → coordinator to request one
	// (body: one flag byte, 1 = abort).
	FrameStop
	// FrameHeartbeat is a worker liveness beacon (empty body).
	FrameHeartbeat
	// FrameError reports a fatal worker-side protocol error before the
	// worker exits (body: UTF-8 message).
	FrameError
	// FrameTrace ships a worker's causal trace log to the coordinator just
	// before its outcome (binary body, see EncodeTraceBlob). Optional: only
	// sent when the worker runs with tracing enabled.
	FrameTrace
)

// Frame layout: u32 big-endian length N, then N bytes: version byte, type
// byte, payload. N therefore is payload length + 2.
const (
	frameHeaderLen   = 4
	frameTrailersLen = 2 // version + type
)

// MaxFrame is the default bound on a frame's declared length. Component
// trajectories dominate frame sizes; 64 MiB is orders of magnitude above
// any real transfer and small enough to reject a corrupted length prefix
// before allocating.
const MaxFrame = 64 << 20

// Frame-codec errors. Decoders return errors — never panic — on malformed
// input, so a corrupted or adversarial stream can only end a connection.
var (
	// ErrBadVersion reports a frame from an unknown protocol version.
	ErrBadVersion = errors.New("dtime: bad frame version")
	// ErrFrameTooLarge reports a length prefix beyond the frame bound.
	ErrFrameTooLarge = errors.New("dtime: frame exceeds size bound")
	// ErrFrameTooShort reports a length prefix too small to hold the
	// version and type bytes.
	ErrFrameTooShort = errors.New("dtime: frame shorter than header")
)

// AppendFrame appends one encoded frame to dst and returns the extended
// slice. It is the single place the wire layout is written.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	n := len(payload) + frameTrailersLen
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, FrameVersion, typ)
	return append(dst, payload...)
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	buf := AppendFrame(make([]byte, 0, frameHeaderLen+frameTrailersLen+len(payload)), typ, payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame from r, enforcing maxFrame (<= 0 means
// MaxFrame). A clean EOF before any byte returns io.EOF; a stream cut mid-
// frame returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, maxFrame int) (typ byte, payload []byte, err error) {
	if maxFrame <= 0 {
		maxFrame = MaxFrame
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < frameTrailersLen {
		return 0, nil, ErrFrameTooShort
	}
	if n > maxFrame {
		return 0, nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if body[0] != FrameVersion {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, body[0])
	}
	return body[1], body[2:], nil
}

// DecodeFrame decodes the first frame in buf without copying the payload.
// It returns the total wire length consumed. Incomplete input returns
// io.ErrUnexpectedEOF; malformed input returns the codec errors above.
func DecodeFrame(buf []byte, maxFrame int) (typ byte, payload []byte, wireLen int, err error) {
	if maxFrame <= 0 {
		maxFrame = MaxFrame
	}
	if len(buf) < frameHeaderLen {
		return 0, nil, 0, io.ErrUnexpectedEOF
	}
	n := int(binary.BigEndian.Uint32(buf))
	if n < frameTrailersLen {
		return 0, nil, 0, ErrFrameTooShort
	}
	if n > maxFrame {
		return 0, nil, 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	if len(buf) < frameHeaderLen+n {
		return 0, nil, 0, io.ErrUnexpectedEOF
	}
	if buf[frameHeaderLen] != FrameVersion {
		return 0, nil, 0, fmt.Errorf("%w: %d", ErrBadVersion, buf[frameHeaderLen])
	}
	return buf[frameHeaderLen+1], buf[frameHeaderLen+frameTrailersLen : frameHeaderLen+n], frameHeaderLen + n, nil
}

// FrameLen reports the total wire length of the frame starting at buf[0],
// or 0 when buf does not yet hold the 4-byte length prefix. It validates
// only the length field — the fault-injecting conn wrapper uses it to split
// a write stream into frames without decoding them.
func FrameLen(buf []byte, maxFrame int) (int, error) {
	if maxFrame <= 0 {
		maxFrame = MaxFrame
	}
	if len(buf) < frameHeaderLen {
		return 0, nil
	}
	n := int(binary.BigEndian.Uint32(buf))
	if n < frameTrailersLen {
		return 0, ErrFrameTooShort
	}
	if n > maxFrame {
		return 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	return frameHeaderLen + n, nil
}
