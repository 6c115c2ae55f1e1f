package dtime

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"aiac/internal/rtime"
	"aiac/internal/runenv"
)

// encodeEnvelope is the one-shot form of appendEnvelope for an already
// serialized payload.
func encodeEnvelope(m runenv.Msg, payload []byte) []byte {
	m.Payload = payload
	b, err := appendEnvelope(nil, m, nil)
	if err != nil {
		panic(err)
	}
	return b
}

// captureConn is the write half of a connection that keeps the last write.
type captureConn struct {
	net.Conn // nil: only Write is ever called
	last     []byte
	writes   int
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.last = append(c.last[:0], p...)
	c.writes++
	return len(p), nil
}

// testLink returns a worker transport writing to conn, hosting rank 0 of 2.
func testLink(conn net.Conn, codec runenv.PayloadCodec) *wrt {
	rt := &wrt{opts: WorkerOptions{Codec: codec}, conn: conn, stopCh: make(chan struct{})}
	rt.world = rtime.NewWorld(2, []int{0}, 1, time.Now(), rt)
	return rt
}

// TestSendFrameGolden pins the bytes of a message frame: what Send puts on
// the connection, in one Write, is what the allocating path it replaced —
// AppendFrame(nil, FrameMsg, encodeEnvelope(m, payload)) — produced. The hex
// was printed by those functions at the last commit that had them.
func TestSendFrameGolden(t *testing.T) {
	m := runenv.Msg{From: 3, To: 7, Kind: 9, Bytes: 100, SendT: 1.25, Seq: 77}
	for _, tc := range []struct {
		name    string
		payload any
		want    string
	}{
		{"raw payload", []byte("payload"), "0000002d0103000000030000000700000009000000643ff4000000000000000000000000004d000000077061796c6f6164"},
		{"no payload", nil, "000000260103000000030000000700000009000000643ff4000000000000000000000000004d00000000"},
	} {
		conn := &captureConn{}
		rt := testLink(conn, nil)
		m.Payload = tc.payload
		rt.Send(m)
		rt.Send(m) // the second send reuses the first one's buffer
		if got := hex.EncodeToString(conn.last); got != tc.want || conn.writes != 2 {
			t.Errorf("%s: %d writes, the last\n%s\nwant 2, each\n%s", tc.name, conn.writes, got, tc.want)
		}
		if rt.fatalErr != nil {
			t.Errorf("%s: %v", tc.name, rt.fatalErr)
		}
	}

	conn := &captureConn{}
	rt := testLink(conn, nil)
	m.Payload = 42
	rt.Send(m)
	if rt.fatalErr == nil || conn.writes != 0 {
		t.Errorf("a payload no codec covers: fatal error %v after %d writes, want an error and no write", rt.fatalErr, conn.writes)
	}
}

// handshake dials the coordinator as worker w and completes the hello/welcome
// exchange by hand, for tests that script a worker's side of the wire.
func handshake(w WorkerEnv) (net.Conn, *FrameReader, error) {
	conn, err := net.Dial("tcp", w.Addr)
	if err != nil {
		return nil, nil, err
	}
	frames := NewFrameReader(conn, 0)
	err = WriteFrame(conn, FrameHello, marshalJSONFrame(helloBody{Worker: w.Worker, Pid: os.Getpid(), Ranks: w.Ranks}))
	if err == nil {
		_, _, _, err = frames.Next()
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, frames, nil
}

// TestControlPayloadOutlivesFrameBuffer pins the coordinator's half of the
// aliasing rule: a control frame's payload is copied before it is queued to
// the event loop. Worker 0 reports its outcome and then sends 1 000 message
// frames of the same size, which land in the buffer the outcome was read
// into; the blob Run returns must be the one that was sent, and every relayed
// frame must reach worker 1 intact.
func TestControlPayloadOutlivesFrameBuffer(t *testing.T) {
	const relayed = 1000
	blob := bytes.Repeat([]byte("outcome!"), 32)
	fill := bytes.Repeat([]byte{0xEE}, len(blob)-envelopeHeaderLen+4) // same frame size as the outcome
	outcome := func(b []byte) []byte {
		e := Enc{}
		e.F64(1)
		return append(e.B, b...)
	}
	opts := testOptions(t, 2, func(w WorkerEnv) error {
		conn, frames, err := handshake(w)
		if err != nil {
			return err
		}
		defer conn.Close()
		if w.Worker == 0 {
			if err := WriteFrame(conn, FrameOutcome, outcome(blob)); err != nil {
				return err
			}
			for i := 0; i < relayed; i++ {
				m := runenv.Msg{From: 0, To: 1, Kind: 1, Seq: uint64(i + 1)}
				if err := WriteFrame(conn, FrameMsg, encodeEnvelope(m, fill)); err != nil {
					return err
				}
			}
		}
		for got := 0; ; {
			typ, payload, _, err := frames.Next()
			if err != nil {
				return err
			}
			switch typ {
			case FrameMsg:
				m, pb, err := decodeEnvelope(payload)
				if got++; err != nil || m.Seq != uint64(got) || !bytes.Equal(pb, fill) {
					t.Errorf("relayed frame %d arrived as seq %d, %d bytes, %v", got, m.Seq, len(pb), err)
				}
				if got == relayed {
					if err := WriteFrame(conn, FrameOutcome, outcome(nil)); err != nil {
						return err
					}
				}
			case FrameStop:
				return nil
			}
		}
	})
	blobs, _, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blobs[0], blob) {
		t.Fatalf("worker 0's outcome came back as\n%q\nwant\n%q", blobs[0], blob)
	}
}

// TestStalledDestinationBlamed is the reproducer for a hung worker on the
// receiving end of the relay: worker 1 checks in, keeps heart-beating and
// never reads, while worker 0 sends to rank 1 until the sockets are full. The
// run must fail typed, naming worker 1 — not worker 0, whose reader is the
// one that blocks — within twice the heartbeat timeout.
func TestStalledDestinationBlamed(t *testing.T) {
	flood := map[int]runenv.Body{0: func(env runenv.Env) {
		chunk := make([]byte, 64<<10)
		for !env.Stopped() {
			env.Send(1, 1, chunk, len(chunk))
		}
	}}
	opts := testOptions(t, 2, func(w WorkerEnv) error {
		if w.Worker == 0 {
			solver(flood, nil)(w) // fails with the run; the coordinator's verdict is the one under test
			return nil
		}
		conn, _, err := handshake(w)
		if err != nil {
			return err
		}
		defer conn.Close()
		for WriteFrame(conn, FrameHeartbeat, nil) == nil {
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	})
	opts.HeartbeatTimeout = time.Second
	type result struct {
		err  error
		took time.Duration
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		_, _, err := Run(opts)
		done <- result{err, time.Since(start)}
	}()
	select {
	case r := <-done:
		var we *WorkerError
		if !errors.As(r.err, &we) {
			t.Fatalf("Run returned %v, want a *WorkerError", r.err)
		}
		if we.Worker != 1 || !we.Timeout {
			t.Fatalf("wrong failure attribution: %+v (%v)", we, we)
		}
		if r.took > 2*opts.HeartbeatTimeout {
			t.Fatalf("the hung destination took %v to surface, want under %v", r.took, 2*opts.HeartbeatTimeout)
		}
	case <-time.After(10 * opts.HeartbeatTimeout):
		t.Fatal("coordinator hung on a destination that stopped reading")
	}
}
