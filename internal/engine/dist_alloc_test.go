//go:build !race

package engine

import "testing"

// TestDistDataPlaneAllocs pins the codec's share of a message's cost, for the
// two kinds that carry trajectories. The zero codec: encoding in place — the
// transport hands AppendPayload its write buffer — allocates nothing, the
// one-shot form allocates its result and nothing else, and decoding
// allocates what it returns: the trajectories, the slice that lists them,
// and the boxed value. A dist worker's codec: a boundary message it encodes
// is the one it decodes the next arriving halo into, so the round trip
// allocates nothing at all.
func TestDistDataPlaneAllocs(t *testing.T) {
	comps := [][]float64{make([]float64, 21), make([]float64, 21), make([]float64, 21)}
	for _, tc := range []struct {
		name    string
		kind    int
		payload any
	}{
		{"boundary", kindBoundary, &boundaryMsg{Iter: 7, Pos: 30, Comps: comps, Load: 0.5}},
		{"lb-data", kindLBData, lbDataMsg{XferID: 1, Pos: 30, Count: 1, Comps: comps, Load: 0.5}},
	} {
		data, err := Codec{}.EncodePayload(tc.kind, tc.payload)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, 2*len(data))
		if allocs := testing.AllocsPerRun(1000, func() { Codec{}.AppendPayload(buf, tc.kind, tc.payload) }); allocs != 0 {
			t.Errorf("%s: AppendPayload into a buffer with room allocated %.2f times, want 0", tc.name, allocs)
		}
		if allocs := testing.AllocsPerRun(1000, func() { Codec{}.EncodePayload(tc.kind, tc.payload) }); allocs != 1 {
			t.Errorf("%s: EncodePayload allocated %.2f times, want 1 (its result, sized exactly)", tc.name, allocs)
		}
		if got, want := testing.AllocsPerRun(1000, func() { Codec{}.DecodePayload(tc.kind, data) }), float64(len(comps)+2); got > want {
			t.Errorf("%s: DecodePayload allocated %.2f times, want <= %.0f", tc.name, got, want)
		}
	}

	pooled := Codec{free: newRunFree(21, 1, false)}
	msg := &boundaryMsg{Iter: 7, Pos: 30, Comps: freshTrajs(3, 21), Load: 0.5}
	msg.Comps[2][20] = 2.5
	buf := make([]byte, 0, 1024)
	if allocs := testing.AllocsPerRun(1000, func() {
		var err error
		if buf, err = pooled.AppendPayload(buf[:0], kindBoundary, msg); err != nil {
			t.Fatal(err)
		}
		v, err := pooled.DecodePayload(kindBoundary, buf)
		if err != nil {
			t.Fatal(err)
		}
		msg = v.(*boundaryMsg)
	}); allocs != 0 {
		t.Errorf("boundary: a dist worker's encode→decode round trip allocated %.2f times, want 0", allocs)
	}
	if msg.Iter != 7 || msg.Pos != 30 || len(msg.Comps) != 3 || msg.Comps[2][20] != 2.5 || msg.Load != 0.5 {
		t.Errorf("boundary: %d round trips through the worker's list gave %+v", 1001, msg)
	}
}

// TestWorkerResultAllocs: a worker's outcome blob is one allocation, sized
// once to what it holds.
func TestWorkerResultAllocs(t *testing.T) {
	r := sampleWorkerResult()
	if allocs := testing.AllocsPerRun(100, func() { encodeWorkerResult(r) }); allocs != 1 {
		t.Errorf("encodeWorkerResult allocated %.2f times, want 1", allocs)
	}
}
