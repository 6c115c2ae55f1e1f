package engine

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"aiac/internal/detect"
	"aiac/internal/dtime"
	"aiac/internal/fault"
	"aiac/internal/runenv"
	"aiac/internal/trace"
)

// wireGolden holds one message of every kind the solvers send to a remote
// rank and the frame it is on the wire, From 0, To 1, Seq counting from 1.
// The hex was printed by the allocating path this data plane replaced —
// dtime.AppendFrame(nil, FrameMsg, encodeEnvelope(m, Codec{}.EncodePayload(…)))
// — at the last commit that had it, with SendT 0.5; never regenerate it from
// the code under test.
var wireGolden = []struct {
	name    string
	kind    int
	payload any
	bytes   int
	frame   string
}{
	{"boundary", kindBoundary, &boundaryMsg{Iter: 42, Pos: 63, Comps: [][]float64{{1, 0.5, -0.25}, {3, 1e-9, 2.5e300}}, Load: 0.125}, trajBytes(2, 3),
		"0000007a0103000000000000000100000001000000503fe0000000000000000000000000000100000054000000000000002a000000000000003f00000002000000033ff00000000000003fe0000000000000bfd00000000000000000000340080000000000003e112e0be826d6957e4ddd4baa0093033fc0000000000000"},
	{"boundary-empty", kindBoundary, &boundaryMsg{Iter: -1}, trajBytes(0, 0),
		"000000420103000000000000000100000001000000203fe000000000000000000000000000020000001cffffffffffffffff0000000000000000000000000000000000000000"},
	{"lb-data", kindLBData, lbDataMsg{XferID: 0xfeedface, Pos: 60, Count: 2, Comps: [][]float64{{1, 2}, {3, 4}, {}}, Load: 7.75}, trajBytes(3, 2),
		"000000760103000000000000000100000002000000503fe000000000000000000000000000030000005000000000feedface000000000000003c000000000000000200000003000000023ff00000000000004000000000000000000000024008000000000000401000000000000000000000401f000000000000"},
	{"lb-ack", kindLBAck, lbCtrlMsg{XferID: 9, Pos: 60, Count: 2}, msgHeaderBytes,
		"0000003e0103000000000000000100000003000000203fe00000000000000000000000000004000000180000000000000009000000000000003c0000000000000002"},
	{"lb-reject", kindLBReject, lbCtrlMsg{XferID: 1 << 40, Pos: -3}, msgHeaderBytes,
		"0000003e0103000000000000000100000004000000203fe00000000000000000000000000005000000180000010000000000fffffffffffffffd0000000000000000"},
	{"state", detect.KindState, detect.StateMsg{Conv: true}, 16,
		"000000270103000000000000000100000065000000103fe000000000000000000000000000060000000101"},
	{"verify", detect.KindVerify, detect.RoundMsg{Round: 3}, 16,
		"0000002e0103000000000000000100000066000000103fe00000000000000000000000000007000000080000000000000003"},
	{"confirm", detect.KindConfirm, detect.ConfirmMsg{Round: 3, Conv: true}, 16,
		"0000002f0103000000000000000100000067000000103fe0000000000000000000000000000800000009000000000000000301"},
	{"halt", detect.KindHalt, detect.HaltMsg{Aborted: true}, 16,
		"000000270103000000000000000100000068000000103fe000000000000000000000000000090000000101"},
	{"abort", detect.KindAbort, nil, 16,
		"000000260103000000000000000100000069000000103fe0000000000000000000000000000a00000000"},
	{"barrier-arrive", detect.KindBarrierArrive, detect.ArriveMsg{Iter: 17, Conv: true}, 16,
		"00000030010300000000000000010000006a000000103fe0000000000000000000000000000b0000000a00000000000000110100"},
	{"barrier-go", detect.KindBarrierGo, detect.GoMsg{Iter: 17, Halt: true}, 16,
		"00000030010300000000000000010000006b000000103fe0000000000000000000000000000c0000000a00000000000000110100"},
	{"token", detect.KindToken, detect.TokenMsg{Round: 5, Clean: true}, 16,
		"0000002f0103000000000000000100000096000000103fe0000000000000000000000000000d00000009000000000000000501"},
	{"ring-halt", detect.KindRingHalt, detect.RingHaltMsg{}, 16,
		"000000270103000000000000000100000097000000103fe0000000000000000000000000000e0000000100"},
}

// sendTOffset is where the envelope's send time sits in a message frame: the
// one field of it a real-time run cannot repeat.
const sendTOffset = 4 + 2 + 4*4

// envelopeFixedLen is the length of the envelope's fixed fields, which the
// length-prefixed payload follows.
const envelopeFixedLen = 4*4 + 8 + 8

// recordingConn keeps a copy of every message frame written through it.
type recordingConn struct {
	net.Conn
	mu     sync.Mutex
	frames [][]byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	if typ, _, n, err := dtime.DecodeFrame(p, 0); err == nil && n == len(p) && typ == dtime.FrameMsg {
		c.mu.Lock()
		c.frames = append(c.frames, append([]byte(nil), p...))
		c.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// TestDistWireGolden pins the bytes of the data plane end to end. Rank 0, on
// one worker, sends every golden message through Env.Send to rank 1 on
// another: each must leave worker 0 as one Write of exactly the golden frame
// (but for the send time, which the golden's takes the place of), and arrive
// at rank 1 as the value that was sent — decoded out of a read buffer that
// the following frames overwrite.
func TestDistWireGolden(t *testing.T) {
	var wire recordingConn
	received := make([]runenv.Msg, 0, len(wireGolden))
	bodies := map[int]runenv.Body{
		0: func(env runenv.Env) {
			for _, g := range wireGolden {
				env.Send(1, g.kind, g.payload, g.bytes)
			}
		},
		1: func(env runenv.Env) {
			for len(received) < len(wireGolden) {
				m, ok := env.RecvWait()
				if !ok {
					return
				}
				received = append(received, m)
			}
		},
	}
	_, _, err := dtime.Run(dtime.Options{
		Workers: 2,
		Ranks:   2,
		RunRoot: t.TempDir(),
		Spawn: dtime.GoroutineSpawner(func(w dtime.WorkerEnv) error {
			wopts := dtime.WorkerOptions{Codec: Codec{}}
			if w.Worker == 0 {
				wopts.WrapConn = func(c net.Conn) net.Conn { wire.Conn = c; return &wire }
			}
			return dtime.RunWorker(w, wopts, func(pr runenv.PartialRunner) ([]byte, error) {
				pr.RunRanks(runenv.Config{Procs: w.Total}, map[int]runenv.Body{w.Ranks[0]: bodies[w.Ranks[0]]})
				return nil, nil
			})
		}),
		HeartbeatTimeout: 10 * time.Second,
		Wall:             time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := wire.frames
	if len(sent) != len(wireGolden) || len(received) != len(wireGolden) {
		t.Fatalf("%d message frames written, %d messages received, want %d of each", len(sent), len(received), len(wireGolden))
	}
	for i, g := range wireGolden {
		want, err := hex.DecodeString(g.frame)
		if err != nil {
			t.Fatal(err)
		}
		if len(sent[i]) == len(want) {
			copy(want[sendTOffset:sendTOffset+8], sent[i][sendTOffset:])
		}
		if !bytes.Equal(sent[i], want) {
			t.Errorf("%s: frame on the wire\n%x\nwant\n%x", g.name, sent[i], want)
		}
		if m := received[i]; m.Kind != g.kind || m.Seq != uint64(i+1) || !reflect.DeepEqual(m.Payload, g.payload) {
			t.Errorf("%s: received kind %d seq %d payload %#v, want kind %d seq %d payload %#v",
				g.name, m.Kind, m.Seq, m.Payload, g.kind, i+1, g.payload)
		}
	}
}

// TestDistCodecMalformed pins the decoder's totality on the golden payloads:
// every truncation is an error, never a panic or a shorter message, and a
// trajectory count corrupted to 2^32-1 is an error that costs no more
// memory than the bytes present could bear out. A value has one encoding:
// a flag byte other than 0 and 1, and bytes past the payload, are errors.
func TestDistCodecMalformed(t *testing.T) {
	for _, bad := range []struct {
		kind int
		data []byte
	}{{detect.KindState, []byte{2}}, {detect.KindState, []byte{1, 0}}, {detect.KindAbort, []byte{0}}} {
		if v, err := (Codec{}).DecodePayload(bad.kind, bad.data); err == nil {
			t.Errorf("kind %d payload %x decoded to %#v without error", bad.kind, bad.data, v)
		}
	}
	for _, g := range wireGolden {
		frame, err := hex.DecodeString(g.frame)
		if err != nil {
			t.Fatal(err)
		}
		_, body, _, err := dtime.DecodeFrame(frame, 0)
		if err != nil {
			t.Fatal(err)
		}
		d := dtime.Dec{B: body[envelopeFixedLen:]}
		payload := d.Bytes()
		if _, err := (Codec{}).DecodePayload(g.kind, payload); err != nil {
			t.Fatalf("%s: golden payload does not decode: %v", g.name, err)
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, err := (Codec{}).DecodePayload(g.kind, payload[:cut]); err == nil {
				t.Errorf("%s: payload cut to %d of %d bytes decoded without error", g.name, cut, len(payload))
			}
		}
	}

	data, err := Codec{}.EncodePayload(kindBoundary, wireGolden[0].payload)
	if err != nil {
		t.Fatal(err)
	}
	copy(data[16:20], []byte{0xff, 0xff, 0xff, 0xff}) // the trajectory count, behind Iter and Pos
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Codec{}.DecodePayload(kindBoundary, data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a trajectory count of 2^32-1 decoded without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding %d bytes with a corrupted count allocated %d bytes", len(data), grew)
	}
}

// sampleWorkerResult fills every field of a worker's outcome, a trace note
// longer than a stack buffer among them.
func sampleWorkerResult() *workerResult {
	out := &nodeOutcome{
		positions: []int{3, 4}, trajs: [][]float64{{1, 2}, {3}}, provisional: []bool{false, true},
		iters: 12, work: 3.5, residual: 1e-7, lbSent: 1, compsMoved: 2, msgsBoundary: 9, haltedOK: true,
	}
	return &workerResult{
		ranks: []int{2}, outcomes: []*nodeOutcome{out}, hasDet: true,
		detOut:    detect.Outcome{Halted: true},
		cause:     runenv.StopMaxTime,
		stats:     fault.Stats{Dropped: 4},
		telemetry: []byte(`{"type":"manifest","manifest":{}}` + "\n"),
		trace: &trace.ProcTrace{Speedup: 200, Dropped: 1, Events: []trace.Event{
			{T0: 0, T1: 1, Node: 2, To: -1, Kind: trace.Compute, Iter: 1, HaloL: -1, HaloR: 0},
			{T0: 1, T1: 1.2, Node: 2, To: 3, Kind: trace.SendRight, Iter: 1, Note: "halo", Seq: 5},
			{T0: 1.2, T1: 1.2, Node: 2, To: -1, Kind: trace.Mark, Iter: -1, Note: "wire-fault 2→3 drop=true dup=0 delay=0"},
		}},
	}
}

// FuzzWorkerResult: decoding any outcome blob never panics, and a blob it
// accepts re-encodes to one that decodes equal, into a buffer sized exactly.
// Equal is compared as the encoder writes it, which holds every field bit for
// bit (NaNs included) and tells no empty list from none.
func FuzzWorkerResult(f *testing.F) {
	f.Add(encodeWorkerResult(&workerResult{}))
	f.Add(encodeWorkerResult(sampleWorkerResult()))
	f.Fuzz(func(t *testing.T, blob []byte) {
		r, err := decodeWorkerResult(blob)
		if err != nil {
			return
		}
		re := encodeWorkerResult(r)
		if len(re) != cap(re) {
			t.Fatalf("the outcome blob has %d bytes in a buffer of %d", len(re), cap(re))
		}
		again, err := decodeWorkerResult(re)
		if err != nil {
			t.Fatalf("the re-encoding of an accepted blob is refused: %v", err)
		}
		if got := encodeWorkerResult(again); !bytes.Equal(got, re) {
			t.Fatalf("the blob changed on its way through the codec:\n got %x\nwant %x", got, re)
		}
	})
}

// payloadKinds is every kind the codec knows, and one it does not.
var payloadKinds = []int{
	kindBoundary, kindLBData, kindLBAck, kindLBReject,
	detect.KindState, detect.KindVerify, detect.KindConfirm, detect.KindHalt, detect.KindAbort,
	detect.KindBarrierArrive, detect.KindBarrierGo, detect.KindToken, detect.KindRingHalt,
	0,
}

// FuzzPayloadCodec: for any payload bytes of any kind, a dist worker's codec
// — whose list already holds messages and buffers of other contents — and
// the zero codec agree, either both on an error or both on the value, and a
// value they accept re-encodes to the very bytes it was decoded from. After
// that decode, failed or not, and after the value has gone back to the list
// as a sent message would, the worker's codec still decodes the golden
// boundary message to exactly what was sent: nothing stale shows through.
func FuzzPayloadCodec(f *testing.F) {
	for _, g := range wireGolden {
		data, err := Codec{}.EncodePayload(g.kind, g.payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(slices.Index(payloadKinds, g.kind)), data)
	}
	golden := wireGolden[0].payload.(*boundaryMsg)
	goldenData, err := Codec{}.EncodePayload(kindBoundary, golden)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		kind := payloadKinds[int(k)%len(payloadKinds)]
		free := newRunFree(3, 1, true)
		free.putMsg(&boundaryMsg{Comps: [][]float64{{7, 7, 7}, {7, 7, 7}, {7, 7, 7}}})
		free.putTraj([]float64{9, 9, 9})
		pooled := Codec{free: free}

		want, wantErr := Codec{}.DecodePayload(kind, data)
		got, gotErr := pooled.DecodePayload(kind, data)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("kind %d: zero codec error %v, worker codec error %v", kind, wantErr, gotErr)
		}
		if wantErr == nil {
			for _, v := range []any{want, got} {
				re, err := Codec{}.EncodePayload(kind, v)
				if err != nil {
					t.Fatalf("kind %d: the decoded %T does not encode: %v", kind, v, err)
				}
				if !bytes.Equal(re, data) {
					t.Fatalf("kind %d: %T re-encodes to\n%x\nnot\n%x", kind, v, re, data)
				}
			}
			if fmt.Sprintf("%T", want) != fmt.Sprintf("%T", got) {
				t.Fatalf("kind %d: zero codec decodes a %T, worker codec a %T", kind, want, got)
			}
			if _, err := pooled.EncodePayload(kind, got); err != nil {
				t.Fatal(err)
			}
		}
		v, err := pooled.DecodePayload(kindBoundary, goldenData)
		if err != nil {
			t.Fatalf("the golden boundary message after kind %d: %v", kind, err)
		}
		if !reflect.DeepEqual(v, golden) {
			t.Fatalf("the golden boundary message after kind %d decodes to %+v, want %+v", kind, v, golden)
		}
	})
}
