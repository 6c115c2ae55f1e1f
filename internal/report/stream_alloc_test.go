//go:build !race

package report

import (
	"bytes"
	"io"
	"testing"

	"aiac/internal/metrics"
)

// TestStreamReplayAllocsAreFixed: replaying an export costs the same few
// allocations whether it holds three lines or hundreds; no line is decoded
// or re-encoded.
func TestStreamReplayAllocsAreFixed(t *testing.T) {
	replayAllocs := func(exp []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			frames, err := Stream(exp)
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteSSEStream(io.Discard, frames); err != nil {
				t.Fatal(err)
			}
		})
	}
	golden := export(t, goldenRun(t, true, "golden-sse"))
	tiny := export(t, &metrics.Run{
		Manifest: metrics.Manifest{Name: "tiny", P: 1, Outcome: &metrics.Outcome{Converged: true}},
		Samples:  [][]metrics.NodeSample{{{T: 1}}},
	})
	if n := bytes.Count(golden, []byte("\n")); n < 200 {
		t.Fatalf("golden export has %d lines; the pin needs hundreds", n)
	}
	g, s := replayAllocs(golden), replayAllocs(tiny)
	if g != s || g > 12 {
		t.Fatalf("replay allocates %v times for the golden export and %v for a 3-line one; want the same, at most 12", g, s)
	}
}
