package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestLogAddAndEvents(t *testing.T) {
	var l Log
	l.Add(Event{T0: 2, T1: 3, Node: 1, To: -1, Kind: Compute, Iter: 0})
	l.Add(Event{T0: 0, T1: 1, Node: 0, To: -1, Kind: Compute, Iter: 0})
	l.Add(Event{T0: 0.5, T1: 0.6, Node: 0, To: 1, Kind: SendRight, Iter: 0})
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].T0 != 0 || evs[1].T0 != 0.5 || evs[2].T0 != 2 {
		t.Fatalf("events not time-sorted: %+v", evs)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestLogConcurrentAdd(t *testing.T) {
	var l Log
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Add(Event{T0: float64(i), Node: g, Kind: Compute})
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Fatalf("lost events: %d", l.Len())
	}
}

func TestFilterAndSpan(t *testing.T) {
	var l Log
	l.Add(Event{T0: 0, T1: 2, Node: 0, Kind: Compute})
	l.Add(Event{T0: 1, T1: 4, Node: 1, Kind: Idle})
	l.Add(Event{T0: 3, T1: 5, Node: 0, Kind: Compute})
	if got := len(l.Filter(Compute)); got != 2 {
		t.Fatalf("Filter(Compute) = %d", got)
	}
	t0, t1 := l.Span()
	if t0 != 0 || t1 != 5 {
		t.Fatalf("Span = (%g, %g)", t0, t1)
	}
}

func TestGanttRendering(t *testing.T) {
	var l Log
	l.Add(Event{T0: 0, T1: 4, Node: 0, To: -1, Kind: Compute, Iter: 0})
	l.Add(Event{T0: 0, T1: 2, Node: 1, To: -1, Kind: Compute, Iter: 0})
	l.Add(Event{T0: 4, T1: 4.5, Node: 0, To: 1, Kind: SendRight, Iter: 0})
	out := Gantt(&l, GanttConfig{Width: 40})
	if !strings.Contains(out, "P0 ") || !strings.Contains(out, "P1 ") {
		t.Fatalf("missing node rows:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("missing compute blocks:\n%s", out)
	}
	if !strings.Contains(out, "legend") {
		t.Fatalf("missing legend:\n%s", out)
	}
	// node 1 computes for half the span then idles: its row must contain
	// both '#' and '.'.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "P1 ") {
			if !strings.Contains(line, "#") || !strings.Contains(line, ".") {
				t.Fatalf("P1 row should mix compute and idle: %q", line)
			}
		}
	}
}

func TestGanttEmpty(t *testing.T) {
	var l Log
	if out := Gantt(&l, GanttConfig{}); !strings.Contains(out, "empty") {
		t.Fatalf("empty log rendering: %q", out)
	}
}

func TestWriteCSV(t *testing.T) {
	var l Log
	l.Add(Event{T0: 0, T1: 1, Node: 0, To: 1, Kind: SendRight, Iter: 3, Note: "a,b"})
	var sb strings.Builder
	if err := l.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "t0,t1,node,to,kind,iter,note") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "send-right") || !strings.Contains(out, "a;b") {
		t.Fatalf("bad row: %q", out)
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{Compute, Idle, Balance, SendLeft, SendRight, SendLB, Control, Mark, Kind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("empty name for kind %d", int(k))
		}
	}
}
