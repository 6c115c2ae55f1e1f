// Package trace records timestamped execution events (compute spans, message
// transfers, load-balancing actions) emitted by the parallel iterative
// engines, and renders them as ASCII Gantt charts like Figures 1-4 of the
// paper, or exports them as CSV for external plotting.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind classifies a trace event.
type Kind int

// Event kinds. Span kinds (Compute, Idle, Balance) carry a duration;
// message kinds (SendLeft, SendRight, SendLB, Control) carry a destination
// and span the transfer interval [T0, T1].
const (
	Compute Kind = iota // a node computing one iteration (or part of one)
	Idle                // a node blocked waiting for data or a barrier
	Balance             // local load-balancing bookkeeping (resize, copy)
	SendLeft
	SendRight
	SendLB
	Control // convergence-detection or barrier traffic
	Mark    // zero-duration annotation (e.g. "halt", "lb-reject")
	Wire    // a cross-process transfer over the real network (dist backend)
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Idle:
		return "idle"
	case Balance:
		return "balance"
	case SendLeft:
		return "send-left"
	case SendRight:
		return "send-right"
	case SendLB:
		return "send-lb"
	case Control:
		return "control"
	case Mark:
		return "mark"
	case Wire:
		return "wire"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is a single recorded occurrence. For span kinds To is -1.
// Times are in simulated (or scaled real) seconds.
//
// The causal fields (Seq, HaloL, HaloR, Xfer) identify the event's place in
// the happens-before order: a message event's identity is (Node, Seq) — Seq
// is the sender-local runtime sequence, so it matches the runenv.Msg.Seq the
// receiver observes — a Compute span records which halo versions it consumed,
// and load-balancing events carry the transfer id of the handshake they
// belong to. Zero values mean "not applicable".
type Event struct {
	T0, T1 float64
	Node   int
	To     int // destination node for message kinds, else -1
	Kind   Kind
	Iter   int    // iteration number at the emitting node, -1 if n/a
	Note   string // free-form annotation
	Seq    uint64 // sender-local message sequence (message kinds), 0 = n/a
	HaloL  int    // left-halo iteration a Compute span consumed, -1 = initial values
	HaloR  int    // right-halo iteration a Compute span consumed, -1 = initial values
	Xfer   uint64 // load-balancing transfer id (LB events), 0 = n/a
	Proc   int    // OS-process index in a federated trace (see Federate), 0 = single process
}

// Log is a concurrency-safe append-only collection of events.
// The zero value is ready to use and unbounded; see SetCap.
type Log struct {
	mu      sync.Mutex
	events  []Event
	cap     int    // max retained events, 0 = unbounded
	stride  int    // keep 1 of every stride Adds (grows as the log thins)
	skip    int    // Adds discarded since the last kept event
	dropped uint64 // total events discarded by the cap policy
}

// SetCap bounds the log to at most n retained events (0 restores the
// unbounded default). When the buffer fills, the log thins itself the same
// way the metrics sampler does: it discards every other retained event and
// doubles its keep stride, so long runs degrade to a uniform subsample
// instead of growing without bound. Dropped counts are reported by Dropped.
func (l *Log) SetCap(n int) {
	l.mu.Lock()
	l.cap = n
	if l.stride == 0 {
		l.stride = 1
	}
	l.mu.Unlock()
}

// Dropped reports how many events the cap policy has discarded.
func (l *Log) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Add appends an event to the log. It is safe for concurrent use.
func (l *Log) Add(ev Event) {
	l.mu.Lock()
	if l.cap > 0 {
		if l.stride == 0 {
			l.stride = 1
		}
		if l.skip+1 < l.stride {
			l.skip++
			l.dropped++
			l.mu.Unlock()
			return
		}
		l.skip = 0
		if len(l.events) >= l.cap {
			// Halve in place: keep every other event, double the stride.
			kept := l.events[:0]
			for i := 0; i < len(l.events); i += 2 {
				kept = append(kept, l.events[i])
			}
			l.dropped += uint64(len(l.events) - len(kept))
			l.events = kept
			l.stride *= 2
		}
	}
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// SetEvents replaces the log's contents with evs (copied), bypassing the
// cap policy — the federation path uses it to install an already-merged
// event stream into a caller-supplied log.
func (l *Log) SetEvents(evs []Event) {
	cp := make([]Event, len(evs))
	copy(cp, evs)
	l.mu.Lock()
	l.events = cp
	l.mu.Unlock()
}

// Events returns a copy of the recorded events sorted by start time
// (ties broken by node, then kind).
func (l *Log) Events() []Event {
	l.mu.Lock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	l.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].T0 != out[j].T0 {
			return out[i].T0 < out[j].T0
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Len reports the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Filter returns the events matching the given kind, in time order.
func (l *Log) Filter(k Kind) []Event {
	var out []Event
	for _, ev := range l.Events() {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// Span returns the [min T0, max T1] interval covered by the log.
// It returns (0, 0) for an empty log.
func (l *Log) Span() (t0, t1 float64) {
	evs := l.Events()
	if len(evs) == 0 {
		return 0, 0
	}
	t0 = evs[0].T0
	t1 = evs[0].T1
	for _, ev := range evs {
		if ev.T0 < t0 {
			t0 = ev.T0
		}
		if ev.T1 > t1 {
			t1 = ev.T1
		}
	}
	return t0, t1
}

// WriteCSV writes the events as CSV rows:
// t0,t1,node,to,kind,iter,note,msg,halo_l,halo_r,xfer,proc.
// The first seven columns are the stable pre-causal schema; the causal
// columns and the process index are appended so existing tooling keeps
// working by position.
func (l *Log) WriteCSV(w io.Writer) error {
	// One row per event adds up to tens of thousands of small writes on a
	// long run; buffer locally so an unbuffered sink (an os.File) costs one
	// syscall per block instead of one per row.
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "t0,t1,node,to,kind,iter,note,msg,halo_l,halo_r,xfer,proc"); err != nil {
		return err
	}
	// Hand-rolled rows (equivalent to
	// "%.9f,%.9f,%d,%d,%s,%d,%s,%d,%d,%d,%d,%d\n"): the export runs once
	// per traced process per run, over up to hundreds of thousands of
	// events, and fmt's reflection dominates its cost.
	row := make([]byte, 0, 128)
	for _, ev := range l.Events() {
		note := strings.ReplaceAll(ev.Note, ",", ";")
		row = strconv.AppendFloat(row[:0], ev.T0, 'f', 9, 64)
		row = append(row, ',')
		row = strconv.AppendFloat(row, ev.T1, 'f', 9, 64)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(ev.Node), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(ev.To), 10)
		row = append(row, ',')
		row = append(row, ev.Kind.String()...)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(ev.Iter), 10)
		row = append(row, ',')
		row = append(row, note...)
		row = append(row, ',')
		row = strconv.AppendUint(row, ev.Seq, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(ev.HaloL), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(ev.HaloR), 10)
		row = append(row, ',')
		row = strconv.AppendUint(row, ev.Xfer, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(ev.Proc), 10)
		row = append(row, '\n')
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// kindFromString inverts Kind.String.
func kindFromString(s string) (Kind, error) {
	for k := Compute; k <= Wire; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown kind %q", s)
}

// WriteCSVFile writes the log to path with WriteCSV.
func (l *Log) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCSV parses a log previously written by WriteCSV. It accepts the
// current 12-column schema, the pre-federation 11-column one and the
// pre-causal 7-column one (absent fields default to zero), so old exports
// stay loadable. It refuses a node or destination id at or above the number
// of events the file holds.
func ReadCSV(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 && strings.HasPrefix(text, "t0,") {
			continue // header
		}
		f := strings.Split(text, ",")
		if len(f) != 7 && len(f) != 11 && len(f) != 12 {
			return nil, fmt.Errorf("trace: line %d: %d columns, want 7, 11 or 12", line, len(f))
		}
		var ev Event
		var err error
		if ev.T0, err = strconv.ParseFloat(f[0], 64); err != nil {
			return nil, fmt.Errorf("trace: line %d t0: %v", line, err)
		}
		if ev.T1, err = strconv.ParseFloat(f[1], 64); err != nil {
			return nil, fmt.Errorf("trace: line %d t1: %v", line, err)
		}
		if ev.Node, err = strconv.Atoi(f[2]); err != nil {
			return nil, fmt.Errorf("trace: line %d node: %v", line, err)
		}
		if ev.To, err = strconv.Atoi(f[3]); err != nil {
			return nil, fmt.Errorf("trace: line %d to: %v", line, err)
		}
		if ev.Kind, err = kindFromString(f[4]); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		if ev.Iter, err = strconv.Atoi(f[5]); err != nil {
			return nil, fmt.Errorf("trace: line %d iter: %v", line, err)
		}
		ev.Note = f[6]
		if len(f) >= 11 {
			if ev.Seq, err = strconv.ParseUint(f[7], 10, 64); err != nil {
				return nil, fmt.Errorf("trace: line %d msg: %v", line, err)
			}
			if ev.HaloL, err = strconv.Atoi(f[8]); err != nil {
				return nil, fmt.Errorf("trace: line %d halo_l: %v", line, err)
			}
			if ev.HaloR, err = strconv.Atoi(f[9]); err != nil {
				return nil, fmt.Errorf("trace: line %d halo_r: %v", line, err)
			}
			if ev.Xfer, err = strconv.ParseUint(f[10], 10, 64); err != nil {
				return nil, fmt.Errorf("trace: line %d xfer: %v", line, err)
			}
		}
		if len(f) == 12 {
			if ev.Proc, err = strconv.Atoi(f[11]); err != nil {
				return nil, fmt.Errorf("trace: line %d proc: %v", line, err)
			}
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Every rank of a real trace logs at least one event, so an id at or
	// above the event count names a rank the file does not hold. Refusing it
	// keeps what the ids size downstream (Analyze's per-node index) bounded
	// by the input.
	for _, ev := range out {
		if ev.Node >= len(out) || ev.To >= len(out) {
			return nil, fmt.Errorf("trace: event names node %d in a trace of %d events", max(ev.Node, ev.To), len(out))
		}
	}
	return out, nil
}
