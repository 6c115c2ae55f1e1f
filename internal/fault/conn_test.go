package fault_test

import (
	"io"
	"net"
	"sync"
	"testing"

	"aiac/internal/dtime"
	"aiac/internal/fault"
)

// connOptions wires the dtime protocol into the transport-agnostic wrapper
// the way engine.RunDistWorker does, minus the engine's kind scoping.
func connOptions() fault.ConnOptions {
	return fault.ConnOptions{
		FrameLen: func(buf []byte) (int, error) { return dtime.FrameLen(buf, dtime.MaxFrame) },
		Classify: func(frame []byte) (from, to, kind, bytes int, ok bool) {
			typ, payload, _, err := dtime.DecodeFrame(frame, dtime.MaxFrame)
			if err != nil || typ != dtime.FrameMsg {
				return 0, 0, 0, 0, false
			}
			from, to, kind, bytes, _, _, ok = dtime.EnvelopeInfo(payload)
			return from, to, kind, bytes, ok
		},
	}
}

// drain reads frames off c until it closes, counting them by type.
func drain(t *testing.T, c net.Conn, wg *sync.WaitGroup, data, control *int) {
	t.Helper()
	defer wg.Done()
	for {
		typ, _, err := dtime.ReadFrame(c, 0)
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Errorf("read side: %v", err)
			return
		}
		if typ == dtime.FrameMsg {
			*data++
		} else {
			*control++
		}
	}
}

func dataFrame(from, to, kind int) []byte {
	env := dtime.Enc{}
	env.U32(uint32(from))
	env.U32(uint32(to))
	env.U32(uint32(kind))
	env.U32(16) // modeled bytes
	env.F64(0)
	env.U64(1)
	env.U32(0) // empty payload
	return dtime.AppendFrame(nil, dtime.FrameMsg, env.B)
}

// TestConnGoldenSeedPin is the wire-level replayability pin: a scripted
// frame stream through the wrapper under the golden seed must always
// produce the same fates. The injector decides from (seed, link, n) alone,
// so these counts are a protocol constant — drift means the decision
// stream moved and every recorded faulty run is silently invalidated.
func TestConnGoldenSeedPin(t *testing.T) {
	const frames = 200
	plan := fault.Plan{
		Seed: 20260808, // golden wire seed
		Msg:  fault.Rates{Drop: 0.20, Dup: 0.10, Reorder: 0.05, Spike: 0.02},
	}
	inj := plan.MustCompile(2)

	a, b := net.Pipe()
	conn := fault.NewConn(a, inj, connOptions())
	var wg sync.WaitGroup
	var data, control int
	wg.Add(1)
	go drain(t, b, &wg, &data, &control)

	frame := dataFrame(0, 1, 1)
	for i := 0; i < frames; i++ {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if i%20 == 0 {
			if err := dtime.WriteFrame(conn, dtime.FrameHeartbeat, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	conn.Close()
	wg.Wait()

	st := inj.Stats()
	// Pinned from the golden seed; exact equality is the point.
	want := fault.Stats{Dropped: 45, Duplicated: 18, Reordered: 6, Spiked: 3}
	if st != want {
		t.Fatalf("golden-seed stats drifted: got %+v, want %+v", st, want)
	}
	if wantData := frames - int(want.Dropped) + int(want.Duplicated); data != wantData {
		t.Fatalf("surviving data frames = %d, want %d", data, wantData)
	}
	if control != 10 {
		t.Fatalf("control frames = %d, want 10 (never faulted)", control)
	}
}

// TestConnControlPlaneImmunity drops every data frame and requires the
// control plane (hello, heartbeats, outcomes) to pass untouched — the
// property that keeps a faulted run supervisable.
func TestConnControlPlaneImmunity(t *testing.T) {
	plan := fault.Plan{Seed: 1, Msg: fault.Rates{Drop: 1}}
	inj := plan.MustCompile(2)

	a, b := net.Pipe()
	conn := fault.NewConn(a, inj, connOptions())
	var wg sync.WaitGroup
	var data, control int
	wg.Add(1)
	go drain(t, b, &wg, &data, &control)

	for i := 0; i < 50; i++ {
		if _, err := conn.Write(dataFrame(0, 1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := dtime.WriteFrame(conn, dtime.FrameHeartbeat, nil); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	wg.Wait()

	if data != 0 {
		t.Fatalf("%d data frames survived a Drop=1 plan", data)
	}
	if control != 50 {
		t.Fatalf("control frames = %d, want 50", control)
	}
	if st := inj.Stats(); st.Dropped != 50 {
		t.Fatalf("dropped = %d, want 50", st.Dropped)
	}
}

// TestConnReassemblesSplitWrites fragments one frame across many Write
// calls; the wrapper must buffer and fault it as a unit, exactly once.
func TestConnReassemblesSplitWrites(t *testing.T) {
	inj := fault.Plan{Seed: 1}.MustCompile(2) // zero rates: pure pass-through
	a, b := net.Pipe()
	conn := fault.NewConn(a, inj, connOptions())
	var wg sync.WaitGroup
	var data, control int
	wg.Add(1)
	go drain(t, b, &wg, &data, &control)

	frame := dataFrame(0, 1, 1)
	for off := 0; off < len(frame); off += 3 {
		end := off + 3
		if end > len(frame) {
			end = len(frame)
		}
		if _, err := conn.Write(frame[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	wg.Wait()
	if data != 1 || control != 0 {
		t.Fatalf("got %d data / %d control frames, want exactly 1 / 0", data, control)
	}
}

// TestConnDeterministicAcrossRuns replays the same scripted stream twice
// and requires bit-identical fate sequences — the property the golden pin
// builds on.
func TestConnDeterministicAcrossRuns(t *testing.T) {
	run := func() fault.Stats {
		inj := fault.Plan{Seed: 7, Msg: fault.Rates{Drop: 0.3, Dup: 0.2}}.MustCompile(4)
		a, b := net.Pipe()
		conn := fault.NewConn(a, inj, connOptions())
		var wg sync.WaitGroup
		var data, control int
		wg.Add(1)
		go drain(t, b, &wg, &data, &control)
		for i := 0; i < 100; i++ {
			// Round-robin over three directed links: per-link streams must
			// not interfere.
			if _, err := conn.Write(dataFrame(i%3, 3, 1)); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()
		wg.Wait()
		return inj.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}
