//go:build !race

package metrics_test

import (
	"io"
	"testing"

	"aiac/internal/metrics"
)

// TestLineAppendAllocatesNothing: a sample or an event line appended to a
// buffer that has room allocates nothing, an escaped string included.
func TestLineAppendAllocatesNothing(t *testing.T) {
	sm := metrics.NodeSample{T: 0.125, Iter: 40, Residual: 3.5e-9, Count: 8, HaloAge: 1e-3,
		IdleFrac: 0.25, MsgsSent: 80, MsgsRecv: 79, Work: 1234.5, Busy: 0.1}
	ev := metrics.Event{T: 0.5, Node: 2, Name: "lb-send", Detail: "to 3: <4 comps>   \x01"}
	buf := make([]byte, 0, 512)
	if a := testing.AllocsPerRun(1000, func() {
		var err error
		if buf, err = metrics.AppendSample(buf[:0], 3, sm); err != nil {
			t.Fatal(err)
		}
		if buf, err = metrics.AppendEvent(buf[:0], ev); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("appending a sample and an event line allocates %v times", a)
	}
}

// TestWriteJSONLAllocsAreFixed: exporting a run allocates the same whether
// it holds the golden run's lines or twice as many.
func TestWriteJSONLAllocsAreFixed(t *testing.T) {
	run := goldenRuns(t)["lb-faults-trace"]
	double := *run
	double.Samples = make([][]metrics.NodeSample, len(run.Samples))
	for node, row := range run.Samples {
		double.Samples[node] = append(append([]metrics.NodeSample(nil), row...), row...)
	}
	double.Events = append(append([]metrics.Event(nil), run.Events...), run.Events...)
	allocs := func(r *metrics.Run) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := r.WriteJSONL(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(run), allocs(&double); a != b {
		t.Fatalf("WriteJSONL allocates %v times for the golden run and %v for one twice as long", a, b)
	}
}
