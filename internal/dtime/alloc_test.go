//go:build !race

package dtime

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"aiac/internal/runenv"
)

// haloCodec is a stand-in for the engine's codec (which this package cannot
// import): a payload is a list of trajectories, laid out as the engine lays
// out a boundary message. Decoding returns its one preallocated value, so
// whatever else the receive path allocates is the transport's.
type haloCodec struct{ decoded any }

func (haloCodec) AppendPayload(dst []byte, _ int, payload any) ([]byte, error) {
	e := Enc{B: dst}
	ts := payload.([][]float64)
	e.U32(uint32(len(ts)))
	for _, t := range ts {
		e.F64s(t)
	}
	return e.B, nil
}

func (c haloCodec) DecodePayload(int, []byte) (any, error) { return c.decoded, nil }

// repeatReader serves the same bytes over and over: a connection whose peer
// never stops sending.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// TestDistDataPlaneAllocs pins what a message costs the heap on its way
// through the transport, once each connection's buffers have grown to the
// traffic: nothing on the sending worker, nothing on the coordinator's relay
// hop, and on the receiving worker only what the codec's decoder returns.
func TestDistDataPlaneAllocs(t *testing.T) {
	halo := [][]float64{make([]float64, 21), make([]float64, 21)} // a Table-1 halo: two components' trajectories
	msg := runenv.Msg{From: 1, To: 0, Kind: 1, Bytes: 368, SendT: 0.5, Seq: 1, Payload: halo}
	codec := haloCodec{decoded: halo}

	t.Run("send", func(t *testing.T) {
		rt := testLink(&captureConn{}, codec)
		rt.Send(msg) // grows the write buffer
		if allocs := testing.AllocsPerRun(1000, func() { rt.Send(msg) }); allocs != 0 || rt.fatalErr != nil {
			t.Fatalf("Send allocated %.2f times per message (%v), want 0", allocs, rt.fatalErr)
		}
	})

	sent := &captureConn{}
	testLink(sent, codec).Send(msg)
	frame := sent.last

	t.Run("read", func(t *testing.T) {
		fr := NewFrameReader(&repeatReader{data: frame}, 0)
		next := func() {
			if _, payload, _, err := fr.Next(); err != nil || len(payload) != len(frame)-frameHeaderLen-frameTrailersLen {
				t.Fatalf("Next = %d bytes, %v", len(payload), err)
			}
		}
		next() // grows the frame buffer
		if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
			t.Fatalf("FrameReader.Next allocated %.2f times per frame, want 0", allocs)
		}
	})

	// The relay hop and the receive path are loops that own a connection:
	// each runs over a stream of `frames` frames that then ends, and what a
	// run allocates — the error that ends it, a mailbox doubling — must not
	// grow with the number of frames.
	const frames = 2000
	stream := bytes.Repeat(frame, frames)
	const budget = 60

	t.Run("relay", func(t *testing.T) {
		// The destination is a real socket, so that arming the write
		// deadline is part of what is measured.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			if peer, err := ln.Accept(); err == nil {
				io.Copy(io.Discard, peer)
			}
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		c := &coordinator{
			workers: []*coordWorker{{conn: conn, writeBound: time.Second}, {}},
			owner:   []int{0, 1},
			events:  make(chan coordEvent, 1),
		}
		hop := func() {
			c.workers[1].frames = NewFrameReader(bytes.NewReader(stream), 0)
			c.reader(1)
			if ev := <-c.events; ev.err != io.EOF {
				t.Fatalf("relay loop ended with %+v, want io.EOF", ev)
			}
		}
		if allocs := testing.AllocsPerRun(5, hop); allocs > budget {
			t.Fatalf("relaying %d frames allocated %.0f times, want <= %d (amortized zero per frame)", frames, allocs, budget)
		} else {
			t.Logf("%.0f allocations to relay %d frames", allocs, frames)
		}
	})

	t.Run("receive", func(t *testing.T) {
		receive := func() {
			rt := testLink(&captureConn{}, codec)
			rt.frames = NewFrameReader(bytes.NewReader(stream), 0)
			rt.reader()
			if !errors.Is(rt.fatalErr, io.EOF) {
				t.Fatalf("receive loop ended with %v, want io.EOF", rt.fatalErr)
			}
		}
		if allocs := testing.AllocsPerRun(5, receive); allocs > budget {
			t.Fatalf("receiving %d frames allocated %.0f times, want <= %d (amortized zero per frame beyond the decoder's)", frames, allocs, budget)
		} else {
			t.Logf("%.0f allocations to receive %d frames", allocs, frames)
		}
	})
}
