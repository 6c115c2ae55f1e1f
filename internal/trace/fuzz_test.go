package trace_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"aiac/internal/report"
	"aiac/internal/trace"
)

// TestReadCSVBoundsNodeIDs: a node id sizes Analyze's per-node index, so
// ReadCSV refuses one the file cannot back with events. Before the bound,
// each of these one-line files made Analyze allocate by the id it names.
func TestReadCSVBoundsNodeIDs(t *testing.T) {
	for _, row := range []string{
		"0,1,100000,-1,compute,1,,0,0,0,0,0",  // node
		"0,1,0,100000,send-left,1,,1,0,0,0,0", // destination
	} {
		evs, err := trace.ReadCSV(strings.NewReader(row + "\n"))
		if err == nil {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			trace.Analyze(evs)
			runtime.ReadMemStats(&after)
			t.Errorf("ReadCSV accepted %q; Analyze then allocated %d bytes", row, after.TotalAlloc-before.TotalAlloc)
		}
	}
	// Ids the events back are read.
	ok := "0,1,0,1,send-right,1,,1,0,0,0,0\n1,2,1,-1,compute,1,,0,1,0,0,0\n"
	if _, err := trace.ReadCSV(strings.NewReader(ok)); err != nil {
		t.Fatalf("ReadCSV refused a two-node trace: %v", err)
	}
}

// FuzzReadCSV: reading any bytes and analyzing and rendering what is accepted
// never panics, the per-node index Analyze builds is no larger than the
// events read, and WriteCSV is idempotent on accepted input: its export reads
// back and writes again byte for byte.
func FuzzReadCSV(f *testing.F) {
	var l trace.Log
	l.Add(trace.Event{T0: 0, T1: 1, Node: 0, To: -1, Kind: trace.Compute, Iter: 1, HaloL: -1, HaloR: -1})
	l.Add(trace.Event{T0: 1, T1: 1.5, Node: 0, To: 1, Kind: trace.SendRight, Iter: 1, Seq: 1})
	l.Add(trace.Event{T0: 1.5, T1: 2.5, Node: 1, To: -1, Kind: trace.Compute, Iter: 1, HaloL: 1, HaloR: -1})
	l.Add(trace.Event{T0: 2, T1: 2.2, Node: 1, To: 0, Kind: trace.SendLB, Iter: 1, Seq: 2, Xfer: 7})
	l.Add(trace.Event{T0: 2.2, T1: 2.3, Node: 0, To: -1, Kind: trace.Balance, Iter: 2, Xfer: 7})
	l.Add(trace.Event{T0: 2.5, T1: 2.5, Node: 1, To: -1, Kind: trace.Mark, Iter: 2, Note: "halt"})
	l.Add(trace.Event{T0: 0.5, T1: 0.9, Node: -1, To: 1, Kind: trace.Wire, Iter: -1, Note: "relay to 1", Proc: 2})
	var seed bytes.Buffer
	if err := l.WriteCSV(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("0,1,0,-1,compute,1,\n1,2,1,0,send-left,1,x\n")) // 7 columns
	f.Add([]byte("0,1,50000000,-1,compute,1,,0,0,0,0,0\n"))       // an id no event backs
	f.Add([]byte("NaN,1,0,1,send-right,1,,1,0,0,0,0\n-Inf,NaN,1,-1,compute,1,,0,0,0,0,0\nInf,1,1,-1,mark,1,halt,0,0,0,0,0\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		evs, err := trace.ReadCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		if lines := bytes.Count(in, []byte("\n")) + 1; len(evs) > lines {
			t.Fatalf("%d events from %d lines", len(evs), lines)
		}
		cp := trace.Analyze(evs)
		if len(cp.Blame) > len(evs) {
			t.Fatalf("%d blame rows for %d events", len(cp.Blame), len(evs))
		}
		report.CriticalPath(cp, 10)

		var in1 trace.Log
		in1.SetEvents(evs)
		var out1 bytes.Buffer
		if err := in1.WriteCSV(&out1); err != nil {
			t.Fatal(err)
		}
		back, err := trace.ReadCSV(bytes.NewReader(out1.Bytes()))
		if err != nil {
			t.Fatalf("the export of an accepted trace is refused: %v\n%s", err, out1.Bytes())
		}
		var in2 trace.Log
		in2.SetEvents(back)
		var out2 bytes.Buffer
		if err := in2.WriteCSV(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
			t.Fatalf("WriteCSV is not idempotent:\n got %s\nwant %s", out2.Bytes(), out1.Bytes())
		}
	})
}
