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
	"bufio"
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
	// workers (binary envelope, see appendEnvelope).
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

// beginFrame appends the header of a frame whose payload the caller appends
// in place; endFrame then fills in the length of the frame that starts at
// buf[start]. Together they are the single place the wire layout is written.
func beginFrame(dst []byte, typ byte) []byte {
	return append(dst, 0, 0, 0, 0, FrameVersion, typ)
}

func endFrame(buf []byte, start int) {
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-frameHeaderLen))
}

// AppendFrame appends one encoded frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	start := len(dst)
	dst = append(beginFrame(dst, typ), payload...)
	endFrame(dst, start)
	return dst
}

// WriteFrame writes one frame to w. It allocates the frame; the connection
// paths build theirs in the buffer they own (see wrt and coordWorker).
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	_, err := w.Write(AppendFrame(nil, typ, payload))
	return err
}

// frameReadBuf is the size of a FrameReader's read-ahead. Data-plane frames
// are a few hundred bytes (a Table-1 halo is ~480), so one read takes several
// off the socket; a short solve opens four connections and pays it for each.
const frameReadBuf = 4 << 10

// FrameReader reads the frames of one connection direction through buffers
// it owns and reuses — a read-ahead and the frame it hands out — so Next
// allocates only when a frame is larger than any before it. It is not safe
// for concurrent use: one goroutine reads a connection.
type FrameReader struct {
	r        io.Reader
	maxFrame int
	hdr      [frameHeaderLen]byte
	buf      []byte // the frame Next returned last, header included
}

// NewFrameReader returns a FrameReader that reads ahead of the frames it
// returns, so nothing else may read from r afterwards. maxFrame <= 0 means
// MaxFrame.
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, frameReadBuf), maxFrame: maxFrame}
}

// Next reads one frame. payload and frame (the whole frame as it crossed the
// wire, header included) alias the reader's buffer: they are valid until the
// next call, and a caller that keeps either must copy it. A clean EOF before
// any byte returns io.EOF; a stream cut mid-frame returns
// io.ErrUnexpectedEOF. The declared length is checked against maxFrame
// before the buffer grows to hold it.
func (fr *FrameReader) Next() (typ byte, payload, frame []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, nil, err
	}
	total, err := FrameLen(fr.hdr[:], fr.maxFrame)
	if err != nil {
		return 0, nil, nil, err
	}
	if total > cap(fr.buf) {
		fr.buf = make([]byte, total)
	}
	frame = fr.buf[:total]
	copy(frame, fr.hdr[:])
	if _, err := io.ReadFull(fr.r, frame[frameHeaderLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, nil, err
	}
	typ, payload, _, err = DecodeFrame(frame, fr.maxFrame)
	return typ, payload, frame, err
}

// ReadFrame reads one frame from r and not a byte past it: the one-shot form
// of FrameReader, at a buffer a call, for tests and scripted peers. maxFrame
// and the errors are Next's.
func ReadFrame(r io.Reader, maxFrame int) (typ byte, payload []byte, err error) {
	fr := FrameReader{r: r, maxFrame: maxFrame}
	typ, payload, _, err = fr.Next()
	return typ, payload, err
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
