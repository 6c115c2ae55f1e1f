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

import (
	"math/rand"

	"aiac/internal/trace"
)

// Msg is a delivered message. The runtimes never copy payloads: Send hands
// the payload over to the receiver, which may reuse its buffers, so a sender
// must not touch it after Send. A fault plan can deliver one payload twice.
type Msg struct {
	From, To int
	Kind     int     // application-defined tag; see ControlKindBase
	Payload  any     // application data
	Bytes    int     // modeled wire size, used for bandwidth cost
	SendT    float64 // time Send was called
	RecvT    float64 // time the message entered the destination mailbox
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
// other processes did in the meantime — messages they sent, a Stop — becomes
// visible at the caller's next Recv, RecvWait, Pending or Stopped, never in
// between; under virtual time those calls (and Send, Stop, and Trace when
// tracing is on) are the only points where a process hands control to the
// scheduler. A process that only ever calls Work after somebody else's Stop
// therefore keeps advancing its own clock until it next looks.
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
	// and returns the arrival time. Sends never block and are reliable
	// and FIFO per (from, to) pair.
	Send(to, kind int, payload any, bytes int) (arrival float64)
	// Recv pops the oldest pending message, if any, without blocking.
	Recv() (Msg, bool)
	// RecvWait blocks until a message is available or the world stops.
	// ok is false when the world stopped (global halt, deadlock, or time
	// limit) and no message is available.
	RecvWait() (Msg, bool)
	// Stopped reports whether the world has been stopped as of this
	// process's clock; processes should unwind promptly once it returns
	// true.
	Stopped() bool
	// Stop requests a global stop of the world (idempotent). It takes
	// effect at the caller's clock: events of other processes that sort
	// before it still happen.
	Stop()
	// Rand returns this process's deterministic private RNG.
	Rand() *rand.Rand
	// LastSendSeq returns the Msg.Seq assigned to the primary copy of the
	// most recent Send by this process (0 before any send). Together with
	// the rank it forms the causal message identity recorded in traces.
	LastSendSeq() uint64
	// Trace records an event if tracing is enabled, else it is a no-op.
	Trace(ev trace.Event)
	// Pending returns the number of messages currently queued in this
	// process's mailbox without consuming anything (telemetry).
	Pending() int
}

// Observer receives runtime telemetry callbacks. Implementations must be
// safe for concurrent use: the real-time runtime invokes them from
// free-running delivery goroutines. See internal/metrics for the standard
// implementation.
type Observer interface {
	// MsgDelivered is called when a message enters the destination
	// mailbox; depth is the mailbox depth including the new message, and
	// m.RecvT - m.SendT is the end-to-end delivery latency.
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
	// Seed seeds the per-process RNGs (process i uses Seed + i).
	Seed int64
	// Trace, when non-nil, collects events emitted via Env.Trace.
	Trace *trace.Log
	// MaxTime, when > 0, stops the world when the clock passes it.
	MaxTime float64
	// Canceled, when non-nil, is polled by the runtimes (between events
	// under vtime, periodically in wall time under rtime); once it returns
	// true the world stops exactly like a MaxTime stop. The hook must be
	// cheap and safe to call concurrently with the run — an atomic flag
	// read is the intended implementation. Because cancellation originates
	// outside the modeled world, the stop point of a canceled run is not
	// deterministic; everything up to the stop still is.
	Canceled func() bool
	// EventCapHint, when > 0, pre-sizes the scheduler's event containers
	// (event heap capacity, and per-process mailboxes at EventCapHint /
	// Procs) to avoid growth reallocations on the hot path.
	EventCapHint int
}

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
