//go:build !race

package obs

import (
	"testing"

	"aiac/internal/metrics"
)

// TestLiveAppendEncodesNothing: a sample or event reaching a live stream
// that nobody reads is stored as it came; appending it allocates nothing
// beyond the stream's amortized growth, so nothing is encoded.
func TestLiveAppendEncodesNothing(t *testing.T) {
	l := &streamListener{sink: &metrics.Sink{}, stream: newLiveStream()}
	sm := metrics.NodeSample{T: 0.5, Iter: 3, Residual: 1e-3, Count: 8, Work: 120}
	ev := metrics.Event{T: 0.5, Node: 1, Name: "conv"}
	if a := testing.AllocsPerRun(1000, func() {
		l.LiveSample(1, sm)
		l.LiveEvent(ev)
	}); a != 0 {
		t.Fatalf("appending a sample and an event allocates %v times", a)
	}
}
