// Package runenv defines the execution environment abstraction shared by the
// deterministic virtual-time runtime (internal/vtime) and the real
// goroutine/channel runtime (internal/rtime).
//
// A parallel iterative algorithm is written once as a process body
// func(Env); the environment supplies the process's notion of time, its
// compute-cost accounting (which models CPU heterogeneity and background
// load), and asynchronous point-to-point messaging with modeled link delays.
// This replaces the PM2 multi-threaded runtime plus the physical
// cluster/grid used in the paper.
package runenv

import "aiac/internal/trace"

// Msg is a delivered message. The runtimes never copy payloads: Send hands
// the payload over to the receiver, which may reuse its buffers, so a sender
// must not touch it after Send. A fault plan can deliver one payload twice.
type Msg struct {
	From, To int
	Kind     int     // application-defined tag; see ControlKindBase
	Payload  any     // application data
	Bytes    int     // modeled wire size, used for bandwidth cost
	SendT    float64 // time Send was called
	// RecvT is the message's arrival: from then on its receiver sees it.
	// Virtual time and a send between ranks of one real-time World stamp
	// the modeled arrival Send returned (send time, link delay, fault
	// delay, FIFO clamp); a message from a rank in another process is
	// stamped when the transport hands it over.
	RecvT float64
	// Seq is the sender-local event sequence: the value of the sending
	// process's private event counter when the message (or duplicated
	// copy) was created. (From, Seq) identifies a delivery uniquely and —
	// unlike a globally assigned sequence — does not depend on how the
	// runtime interleaved other processes.
	Seq uint64
}

// ControlKindBase splits message kinds in two. Kinds below it are the data
// plane (halo exchange, the load-balancing handshake); kinds from it up are
// the convergence-detection control plane, which fault plans leave reliable
// by default and telemetry counts apart.
const ControlKindBase = 100

// Env is the world as seen by one process (one grid node). All times are in
// seconds: virtual seconds under vtime, scaled wall-clock seconds under
// rtime.
//
// Work and Sleep advance the caller's own clock and nothing else. What the
// other processes did in the meantime — messages they sent — and a stop of
// the world become visible at the caller's next Recv, RecvWait, Pending or
// Stopped, never in between; under virtual time those calls (and Send, and
// Trace when tracing is on) are the only points where a process hands
// control to the scheduler.
//
// A process cannot stop the world: it stops on its own (Config.MaxTime,
// Config.Canceled, a virtual-time stall) or, for a world hosted in parts, when
// another part stops. Nor does a process draw randomness from it: a body that
// needs some brings its own seeded source.
type Env interface {
	// Rank returns this process's id in [0, NumProcs).
	Rank() int
	// NumProcs returns the total number of processes in the world.
	NumProcs() int
	// Now returns the current time at this process.
	Now() float64
	// Work advances this process's clock by the cost of executing the given
	// abstract work units on this node, accounting for node speed and
	// background load. It is a no-op once the world has stopped, as far as
	// this process can tell (see above).
	Work(units float64)
	// Sleep advances this process's clock by the given duration regardless
	// of node speed; like Work it observes nothing.
	Sleep(seconds float64)
	// Send delivers payload to process `to` after the modeled link delay
	// and returns the arrival time (see Decide). Sends never block and are
	// reliable and FIFO per (from, to) pair unless a FaultHook says otherwise.
	Send(to, kind int, payload any, bytes int) (arrival float64)
	// Recv pops the oldest pending message, if any, without blocking. A
	// message is pending once its arrival (Msg.RecvT) has passed.
	Recv() (Msg, bool)
	// RecvWait blocks until a message is available or the world stops.
	// ok is false when the world stopped (global halt, deadlock, or time
	// limit) and no message is available.
	RecvWait() (Msg, bool)
	// Stopped reports whether the world has been stopped as of this
	// process's clock; processes should unwind promptly once it returns
	// true.
	Stopped() bool
	// LastSendSeq returns the Msg.Seq assigned to the primary copy of the
	// most recent Send by this process (0 before any send). Together with
	// the rank it forms the causal message identity recorded in traces.
	LastSendSeq() uint64
	// Trace records an event if tracing is enabled, else it is a no-op.
	Trace(ev trace.Event)
	// Pending returns the number of messages Recv could pop now, without
	// consuming anything (telemetry).
	Pending() int
}

// Observer receives runtime telemetry callbacks. Implementations must be
// safe for concurrent use: the real-time runtime invokes them from every
// rank's goroutine and from the one that hands over messages from other
// processes. See internal/metrics for the standard implementation.
type Observer interface {
	// MsgDelivered is called once per message, for the moment it becomes
	// visible to its receiver, m.RecvT; depth is the number of messages
	// the receiver could see at that moment, the new one included, and
	// m.RecvT - m.SendT is the end-to-end delivery latency. A message that
	// arrives after its receiver's body has returned is never observed. The
	// real-time runtime makes the call when that mailbox is next touched
	// (a receive, a Pending, a send into it, the body's return), so the
	// call may come later in wall time than RecvT. It makes it with the
	// mailbox locked, which keeps one receiver's calls in arrival order and
	// their depths exact: MsgDelivered must return promptly and must not
	// call into the runtime.
	MsgDelivered(m Msg, depth int)
}

// Config describes a world: how many processes, how expensive computation is
// on each node, and how long messages take between nodes. The cost hooks are
// supplied by internal/grid; keeping them as plain funcs keeps the runtimes
// independent of the cluster model.
type Config struct {
	Procs int
	// ComputeTime returns the wall/virtual duration for `units` of work
	// starting at time `start` on node `node` (background load may make
	// the same units cost more at different times). The virtual-time
	// runtime calls it while the process runs ahead of the global clock
	// (see Env), so calls for different nodes arrive in no particular
	// order: any state it keeps must be partitioned per node.
	ComputeTime func(node int, start, units float64) float64
	// Delay returns the transfer duration for a message of the given
	// modeled size sent between two nodes at time `now`. Implementations
	// may keep state (e.g. serialization queues): the virtual-time runtime
	// calls the hook one send at a time, in event order, but the real-time
	// runtime calls it from every sender's goroutine, so such state must be
	// safe for concurrent use. Delays must be >= 0.
	Delay func(from, to, bytes int, now float64) float64
	// FaultHook, when non-nil, is consulted once per Send (after Delay) to
	// decide the fate of the message: lost, duplicated, reordered, or
	// delivered late. The zero MsgFault means "deliver normally". The hook
	// must be deterministic given its arguments and any internal counters
	// it keeps, and — like Delay — safe for concurrent use with internal
	// counters partitioned per link or per sender (a single global counter
	// would make decisions depend on how the real-time runtime interleaved
	// the senders). ExtraDelay and DupDelays entries must be >= 0. See
	// internal/fault for the standard implementation.
	FaultHook func(from, to, kind, bytes int, now, delay float64) MsgFault
	// Observer, when non-nil, receives runtime telemetry (message
	// deliveries with queue depth and latency). A nil Observer costs the
	// runtimes one pointer check per delivery and no allocations.
	Observer Observer
	// Trace, when non-nil, collects events emitted via Env.Trace.
	Trace *trace.Log
	// MaxTime, when > 0, is the time limit: the runtime stops the world
	// once its clock passes it and reports StopMaxTime.
	MaxTime float64
	// Canceled, when non-nil, is polled by the runtimes (between events
	// under vtime, periodically in wall time under rtime); once it returns
	// true the world stops and the runtime reports StopCanceled. The hook
	// must be cheap and safe to call concurrently with the run — an atomic
	// flag read is the intended implementation. Because cancellation
	// originates outside the modeled world, the stop point of a canceled run
	// is not deterministic; everything up to the stop still is.
	Canceled func() bool
	// OnStop, when non-nil, is told why the runtime stopped the world
	// itself (never for a stop that reached it from another part of the
	// world; under rtime, the first stop's):
	// at most once, on the goroutine that called Run, before Run returns.
	// A run is the same with or without it.
	OnStop func(StopCause)
}

// StopCause is why a runtime stopped the world on its own account: its
// clock passed Config.MaxTime, Config.Canceled returned true, or (virtual
// time only) every live process waits in RecvWait with nothing to deliver.
type StopCause uint8

const (
	StopMaxTime StopCause = iota + 1
	StopCanceled
	StopStalled
)

// MsgFault is the injected fate of one message send; the zero value means
// "deliver normally". Produced by Config.FaultHook, honored by the runtimes.
type MsgFault struct {
	// Drop loses the message. Send still returns the would-be arrival time
	// (a sender cannot observe the loss), but nothing is ever delivered.
	Drop bool
	// ExtraDelay is added to the modeled link delay of the delivered copy.
	ExtraDelay float64
	// Reorder exempts the delivered copy from the per-pair FIFO guarantee,
	// so a delayed copy can arrive after messages sent later on the link.
	Reorder bool
	// DupDelays delivers one extra copy of the message per entry, each
	// with the given delay added to the modeled link delay. Duplicate
	// copies bypass the per-pair FIFO order.
	DupDelays []float64
}

// Fate is what becomes of one Send, as Decide works it out.
type Fate struct {
	// Arrival is what Send reports: the primary copy's arrival, or, for a
	// dropped copy, when it would have arrived.
	Arrival float64
	// Deliver is false when the primary copy is lost.
	Deliver bool
	// Last is the sender's FIFO state for the destination after the send.
	Last float64
	base float64   // send time + link delay, the duplicates' origin
	dups []float64 // the fault's DupDelays
}

// Decide works out the fate of a send made at now over a link of the given
// delay, under fault f, when the sender's last in-order copy to the same
// destination arrives at last (0 before any). Every runtime calls it, so a
// send has the same fate wherever it is hosted:
//
//   - a copy that is not reordered never arrives before the previous one,
//     though it may arrive at the same time;
//   - a dropped copy reports that clamped arrival but leaves the FIFO state
//     as it was, since it constrains nothing that follows;
//   - a reordered copy is neither clamped nor recorded;
//   - duplicates arrive at now + delay + their extra delay, outside FIFO
//     order: an independently delayed copy arriving out of order is the
//     reordering the engine must tolerate.
//
// A send to a rank hosted elsewhere is decided with the zero MsgFault: the
// transport replaces the modeled delay, but the sender is told the same
// clamped arrival.
func Decide(now, delay float64, f MsgFault, last float64) Fate {
	base := now + delay
	fate := Fate{Arrival: base + f.ExtraDelay, Deliver: !f.Drop, Last: last, base: base, dups: f.DupDelays}
	if !f.Reorder {
		if fate.Arrival < last {
			fate.Arrival = last
		}
		if !f.Drop {
			fate.Last = fate.Arrival
		}
	}
	return fate
}

// Dups returns the number of duplicate copies.
func (f Fate) Dups() int { return len(f.dups) }

// DupArrival returns the arrival of duplicate copy i.
func (f Fate) DupArrival(i int) float64 { return f.base + f.dups[i] }

// Normalize fills in defaults for missing hooks: unit-speed nodes and
// zero-delay links.
func (c Config) Normalize() Config {
	if c.ComputeTime == nil {
		c.ComputeTime = func(_ int, _, units float64) float64 { return units }
	}
	if c.Delay == nil {
		c.Delay = func(_, _, _ int, _ float64) float64 { return 0 }
	}
	return c
}

// Body is a process body. Processes are started together and the world runs
// until all bodies return or the world stops.
type Body func(env Env)

// Runner abstracts "run this set of process bodies to completion" so the
// engines can be executed on either runtime.
type Runner interface {
	// Run executes bodies[i] as process i and returns the final time
	// (the maximum process clock reached).
	Run(cfg Config, bodies []Body) (endTime float64)
}
