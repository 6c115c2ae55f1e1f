package fault

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// ConnOptions configures a fault-injecting connection wrapper. The wrapper
// is transport-agnostic: it never parses wire formats itself, the caller
// supplies the frame splitter and the envelope peek of whatever protocol
// flows through the connection.
type ConnOptions struct {
	// FrameLen reports the total length of the frame starting at buf[0], or
	// 0 when buf is still too short to tell (dtime.FrameLen fits directly).
	// Required.
	FrameLen func(buf []byte) (int, error)
	// Classify extracts the fault-plan routing key of one complete frame.
	// ok=false marks the frame as control plane: it is forwarded verbatim
	// and never faulted. Required.
	Classify func(frame []byte) (from, to, kind, bytes int, ok bool)
	// Delay models the base link delay of a frame, in model seconds; the
	// plan scales its jitter and spikes from it (grid.Cluster.Delay fits).
	// nil means zero base delay.
	Delay func(from, to, bytes int) float64
	// WallScale converts a model-seconds fault delay into wall seconds for
	// the head-of-line sleep (1/speedup of the worker clock). Default 1e-3.
	WallScale float64
	// OnFault, when non-nil, observes every non-trivial fault decision on a
	// classified frame — a drop, a duplication, or an extra delay (model
	// seconds) — so the caller can attribute injections to the link they
	// fired on (the trace layer records them as link-annotated marks).
	OnFault func(from, to, kind, bytes int, drop bool, dups int, delay float64)
}

// Conn wraps a net.Conn and applies a seeded fault plan to the frames
// written through it: dropped frames are swallowed, duplicated frames are
// written twice, and delay-shaped faults become bounded head-of-line
// sleeps of at most 100 ms. TCP delivers whatever survives in order,
// so reorder faults degrade to delays — loss, duplication and delay are
// exactly the failure modes a real stream transport exposes.
//
// Faults are decided by Injector.MsgFault, the same per-link splitmix
// stream the in-process runtime hook draws from: the fate of the n-th
// data frame on a directed link is a pure function of (seed, link, n),
// regardless of which side of the process boundary the link crosses. The
// wrapper has no model clock, so it passes the injector a time of 0, which
// the seeded plan does not consult.
//
// Reads pass through untouched; the receiver's ledger, not the network,
// is what the surviving duplicates are meant to exercise.
type Conn struct {
	net.Conn
	inj *Injector
	o   ConnOptions

	mu  sync.Mutex
	buf []byte // carry-over of an incomplete trailing frame
}

// maxConnDelay caps any single injected sleep so a hostile plan cannot
// starve the heartbeats that share the connection.
const maxConnDelay = 100 * time.Millisecond

// NewConn wraps inner with the plan compiled into inj. Panics if the
// required callbacks are missing — that is a wiring bug, not a runtime
// condition.
func NewConn(inner net.Conn, inj *Injector, o ConnOptions) *Conn {
	if o.FrameLen == nil || o.Classify == nil {
		panic("fault: ConnOptions needs FrameLen and Classify")
	}
	if o.WallScale == 0 {
		o.WallScale = 1e-3
	}
	return &Conn{Conn: inner, inj: inj, o: o}
}

// Write splits p into frames and decides each frame's fate. Partial
// trailing frames are buffered until a later Write completes them, so the
// wrapper stays correct even if the sender fragments frames across calls.
// The reported length always covers all of p: a dropped frame is a
// successful write that the network happened to lose.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = append(c.buf, p...)
	for {
		n, err := c.o.FrameLen(c.buf)
		if err != nil {
			return 0, fmt.Errorf("fault: split write stream: %w", err)
		}
		if n == 0 || n > len(c.buf) {
			return len(p), nil
		}
		frame := c.buf[:n:n]
		c.buf = c.buf[n:]
		if err := c.writeFrame(frame); err != nil {
			return 0, err
		}
	}
}

func (c *Conn) writeFrame(frame []byte) error {
	copies := 1
	var sleep time.Duration
	if from, to, kind, bytes, ok := c.o.Classify(frame); ok {
		var delay float64
		if c.o.Delay != nil {
			delay = c.o.Delay(from, to, bytes)
		}
		f := c.inj.MsgFault(from, to, kind, bytes, 0, delay)
		if c.o.OnFault != nil && (f.Drop || len(f.DupDelays) > 0 || f.ExtraDelay > 0) {
			c.o.OnFault(from, to, kind, bytes, f.Drop, len(f.DupDelays), f.ExtraDelay)
		}
		if f.Drop {
			return nil
		}
		copies += len(f.DupDelays)
		sleep = min(time.Duration(f.ExtraDelay*c.o.WallScale*float64(time.Second)), maxConnDelay)
	}
	if sleep > 0 {
		time.Sleep(sleep)
	}
	for i := 0; i < copies; i++ {
		if _, err := c.Conn.Write(frame); err != nil {
			return err
		}
	}
	return nil
}
