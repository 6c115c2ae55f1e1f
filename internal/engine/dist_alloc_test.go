//go:build !race

package engine

import "testing"

// TestDistDataPlaneAllocs pins the codec's share of a message's cost, for the
// two kinds that carry trajectories: encoding in place — the transport hands
// AppendPayload its write buffer — allocates nothing, the one-shot form
// allocates its result and nothing else, and decoding allocates what it
// returns: the trajectories, the slice that lists them, and the boxed value.
func TestDistDataPlaneAllocs(t *testing.T) {
	comps := [][]float64{make([]float64, 21), make([]float64, 21), make([]float64, 21)}
	for _, tc := range []struct {
		name    string
		kind    int
		payload any
	}{
		{"boundary", kindBoundary, boundaryMsg{Iter: 7, Pos: 30, Comps: comps, Load: 0.5}},
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
}
