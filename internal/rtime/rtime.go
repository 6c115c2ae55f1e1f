// Package rtime is the real-time runtime for the process model in
// internal/runenv: every process is a goroutine running truly in parallel,
// Work/Sleep consume (scaled) wall-clock time, and messages are delivered by
// timer goroutines after their modeled link delay.
//
// There is one implementation, World. It hosts any subset of a world's ranks
// and reaches the others through a two-method Link: Runner runs a World that
// hosts every rank and has no Link; a worker of the distributed backend
// (internal/dtime) runs a World that hosts its share, with the coordinator
// connection as the Link.
//
// It is the live counterpart of the deterministic internal/vtime runtime:
// the same engine code runs on both. rtime executions are not reproducible
// run-to-run (that is the point — real asynchronism), so tests against it
// assert convergence and solution accuracy rather than exact timings.
package rtime

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aiac/internal/runenv"
	"aiac/internal/trace"
)

// DefaultSpeedup is the model-to-wall scale used when none is given: one
// model second per wall millisecond. Every process of a distributed run, and
// whoever federates their traces, must run on one scale.
const DefaultSpeedup = 1000

// Speedup returns s, or DefaultSpeedup when s is not positive.
func Speedup(s float64) float64 {
	if s <= 0 {
		return DefaultSpeedup
	}
	return s
}

// Runner executes process bodies with real concurrency.
type Runner struct {
	// Speedup scales model time to wall time: one model second takes
	// 1/Speedup wall seconds. Zero means DefaultSpeedup.
	Speedup float64
}

// Run implements runenv.Runner: a World that hosts every rank.
func (r Runner) Run(cfg runenv.Config, bodies []runenv.Body) float64 {
	ranks := make([]int, len(bodies))
	local := make(map[int]runenv.Body, len(bodies))
	for i, body := range bodies {
		ranks[i] = i
		local[i] = body
	}
	return NewWorld(len(bodies), ranks, Speedup(r.Speedup), time.Now(), nil).RunRanks(cfg, local)
}

// Link connects a World to the ranks it does not host.
type Link interface {
	// Send carries m (From, To, Kind, Payload, Bytes, SendT and Seq set) to
	// its destination rank. What becomes of it on the way — latency, loss —
	// is the Link's business; the sender has already been told the modeled
	// arrival.
	Send(m runenv.Msg)
	// Stop asks the rest of the world to stop. It is called at most once.
	Stop()
}

// World runs the locally hosted ranks of a world of `total` ranks on one
// model clock. It implements runenv.PartialRunner.
type World struct {
	speedup float64
	start   time.Time
	link    Link
	procs   []*proc // by rank; nil where the rank is hosted elsewhere

	stopped   atomic.Bool
	stopAsked atomic.Bool // link.Stop was called
	delWG     sync.WaitGroup

	// cfg is written once, by RunRanks before it sets attached; arrivals
	// that beat it wait in early.
	mu       sync.Mutex
	attached bool
	early    []runenv.Msg
	cfg      runenv.Config
}

// proc is one hosted rank. Everything above mu belongs to the rank's own
// goroutine: message identity and per-pair order never encode how the
// scheduler interleaved other processes (matching the vtime runtime's
// per-process counters).
type proc struct {
	id  int
	w   *World
	rng *rand.Rand // made by the first Rand call
	// seq is the sender-local event counter behind Msg.Seq; lastSend is the
	// Msg.Seq of the primary copy of the most recent Send.
	seq, lastSend uint64
	out           []*pairState // by destination rank, made on first use

	mu   sync.Mutex
	cond *sync.Cond
	// mailbox[mboxHead:] holds the undelivered messages — vtime's head-index
	// queue: popping advances the head and resets to empty when drained, so
	// the backing array is reused instead of walked off from the front.
	mailbox  []runenv.Msg
	mboxHead int
}

// pairState serializes deliveries per (from, to) pair: each send takes a
// ticket, and its deliverer goroutine — after sleeping out the modeled
// delay — waits until every earlier ticket on the same pair has been
// delivered. This makes per-pair FIFO a hard guarantee rather than a
// property of timer wakeup ordering.
type pairState struct {
	nextTicket  uint64 // sender only
	lastArrival float64

	mu          sync.Mutex
	cond        *sync.Cond
	nextDeliver uint64
}

// NewWorld returns a world of total ranks that hosts localRanks, whose model
// clock reads zero at start and runs speedup times faster than the wall
// clock. link reaches the other ranks; it may be nil when there are none.
func NewWorld(total int, localRanks []int, speedup float64, start time.Time, link Link) *World {
	w := &World{speedup: speedup, start: start, link: link, procs: make([]*proc, total)}
	for _, rank := range localRanks {
		p := &proc{id: rank, w: w, out: make([]*pairState, total)}
		p.cond = sync.NewCond(&p.mu)
		w.procs[rank] = p
	}
	return w
}

// hosts reports whether rank runs in this world.
func (w *World) hosts(rank int) bool {
	return rank >= 0 && rank < len(w.procs) && w.procs[rank] != nil
}

// Now returns the model clock.
func (w *World) Now() float64 {
	return time.Since(w.start).Seconds() * w.speedup
}

func (w *World) toWall(model float64) time.Duration {
	return time.Duration(model / w.speedup * float64(time.Second))
}

// RunRanks implements runenv.PartialRunner: it executes the given bodies as
// their world ranks (all of them hosted here) and returns once they are done
// and every delivery they started has landed.
func (w *World) RunRanks(cfg runenv.Config, bodies map[int]runenv.Body) float64 {
	cfg = cfg.Normalize()
	for rank := range bodies {
		if !w.hosts(rank) {
			panic(fmt.Sprintf("rtime: rank %d is not hosted by this world", rank))
		}
	}
	// Workers of a distributed run are released together, so a fast peer can
	// send before a slow one has built its bodies. Hand those arrivals over
	// in order, and attach only once none is left, so that a later arrival
	// cannot overtake them.
	w.mu.Lock()
	w.cfg = cfg
	for len(w.early) > 0 {
		early := w.early
		w.early = nil
		w.mu.Unlock()
		for _, m := range early {
			w.deliver(m)
		}
		w.mu.Lock()
	}
	w.attached = true
	w.mu.Unlock()

	var watchdog *time.Timer
	if cfg.MaxTime > 0 {
		watchdog = time.AfterFunc(w.toWall(cfg.MaxTime), w.stop)
	}
	if cfg.Canceled != nil {
		// Cancellation poller: the real-time runtime has no between-event
		// seam, so poll the flag on a short wall-clock period and stop the
		// world like the watchdog does.
		pollDone := make(chan struct{})
		defer close(pollDone)
		go func() {
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-pollDone:
					return
				case <-tick.C:
					if cfg.Canceled() {
						w.stop()
						return
					}
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for rank, body := range bodies {
		wg.Add(1)
		go func(p *proc, body runenv.Body) {
			defer wg.Done()
			body(&env{p: p})
		}(w.procs[rank], body)
	}
	wg.Wait()
	if watchdog != nil {
		watchdog.Stop()
	}
	w.delWG.Wait()
	return w.Now()
}

// Deliver hands over a message from a rank hosted elsewhere to its
// destination here; it fails when that rank is not hosted here. Messages
// from one sender must be delivered from one goroutine, in the order they
// are to be received.
func (w *World) Deliver(m runenv.Msg) error {
	if !w.hosts(m.To) {
		return fmt.Errorf("rtime: message for rank %d, which is not hosted here", m.To)
	}
	w.mu.Lock()
	if !w.attached {
		w.early = append(w.early, m)
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	w.deliver(m)
	return nil
}

// deliver is the one place a message enters a mailbox.
func (w *World) deliver(m runenv.Msg) {
	dst := w.procs[m.To]
	m.RecvT = w.Now()
	dst.mu.Lock()
	dst.mailbox = append(dst.mailbox, m)
	depth := len(dst.mailbox) - dst.mboxHead
	dst.cond.Broadcast()
	dst.mu.Unlock()
	if t := w.cfg.Trace; t != nil && !w.hosts(m.From) {
		// The delivery half of a cross-process message: T0 is the sender's
		// send time on the *sender's* clock (normalized at federation), T1
		// the local delivery time. Federate matches it to the send by
		// (Node, Seq) and collapses the pair into one Wire span.
		t.Add(trace.Event{
			T0: m.SendT, T1: m.RecvT, Node: m.From, To: m.To,
			Kind: trace.Wire, Iter: -1, Note: trace.WireDeliverNote, Seq: m.Seq,
		})
	}
	if obs := w.cfg.Observer; obs != nil {
		obs.MsgDelivered(m, depth)
	}
}

// deliverAfter delivers m once the modeled delay has passed and, when fifo
// is non-nil, every earlier ticket of that pair has been delivered. Only the
// sender's goroutine calls it.
func (w *World) deliverAfter(m runenv.Msg, delay float64, fifo *pairState) {
	var ticket uint64
	if fifo != nil {
		ticket = fifo.nextTicket
		fifo.nextTicket++
	}
	wait := w.toWall(delay)
	w.delWG.Add(1)
	go func() {
		defer w.delWG.Done()
		preciseWait(wait)
		if fifo == nil {
			w.deliver(m)
			return
		}
		fifo.mu.Lock()
		for fifo.nextDeliver != ticket {
			fifo.cond.Wait()
		}
		fifo.mu.Unlock()
		w.deliver(m)
		fifo.mu.Lock()
		fifo.nextDeliver++
		fifo.cond.Broadcast()
		fifo.mu.Unlock()
	}()
}

// StopLocal stops the ranks hosted here — no Work, Sleep or blocked RecvWait
// lasts beyond it — without telling the rest of the world.
func (w *World) StopLocal() {
	if w.stopped.Swap(true) {
		return
	}
	for _, p := range w.procs {
		if p != nil {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		}
	}
}

// stop is the global stop (Env.Stop, the MaxTime watchdog, a cancel): ask
// the rest of the world, then stop here without waiting for the echo.
func (w *World) stop() {
	if w.link != nil && !w.stopAsked.Swap(true) {
		w.link.Stop()
	}
	w.StopLocal()
}

type env struct {
	p *proc
}

func (e *env) Rank() int     { return e.p.id }
func (e *env) NumProcs() int { return len(e.p.w.procs) }
func (e *env) Now() float64  { return e.p.w.Now() }

// preciseWait waits for d with sub-timer-granularity accuracy: it sleeps
// for the bulk and spins (yielding) through the last stretch. Plain
// time.Sleep rounds tiny durations up to the OS timer period (tens of
// microseconds), which at high Speedup would randomly inflate modeled
// compute and network times by an order of magnitude or more.
func preciseWait(d time.Duration) {
	if d <= 0 {
		return
	}
	const spinLimit = 100 * time.Microsecond
	target := time.Now().Add(d)
	if d > spinLimit {
		time.Sleep(d - spinLimit)
	}
	for time.Now().Before(target) {
		runtime.Gosched()
	}
}

func (e *env) Work(units float64) {
	w := e.p.w
	if units <= 0 || w.stopped.Load() {
		return
	}
	d := w.cfg.ComputeTime(e.p.id, w.Now(), units)
	preciseWait(w.toWall(d))
}

func (e *env) Sleep(seconds float64) {
	w := e.p.w
	if seconds <= 0 || w.stopped.Load() {
		return
	}
	preciseWait(w.toWall(seconds))
}

func (e *env) Send(to, kind int, payload any, bytes int) float64 {
	p, w := e.p, e.p.w
	if to < 0 || to >= len(w.procs) {
		panic(fmt.Sprintf("rtime: send to invalid process %d", to))
	}
	now := w.Now()
	delay := w.cfg.Delay(p.id, to, bytes, now)
	// The primary copy's seq is allocated before any duplicate copies, and
	// even when the message is dropped — the same order the vtime runtime
	// uses — so (rank, seq) message identities agree across the runtimes.
	m := runenv.Msg{
		From: p.id, To: to, Kind: kind, Payload: payload, Bytes: bytes,
		SendT: now, Seq: p.nextSeq(),
	}
	p.lastSend = m.Seq
	if !w.hosts(to) {
		// Hosted elsewhere: the real transport's latency replaces the
		// modeled delay and any faults are the Link's (FaultHook decides
		// local fates only). The modeled arrival is still returned, so
		// sender-side pacing (the paper's Figure-4 mutual exclusion) behaves
		// as on the other runtimes.
		w.link.Send(m)
		return now + delay
	}
	var f runenv.MsgFault
	if w.cfg.FaultHook != nil {
		f = w.cfg.FaultHook(p.id, to, kind, bytes, now, delay)
	}
	arrival := now + delay + f.ExtraDelay
	// Duplicated and reordered copies are delivered outside the per-pair
	// FIFO serialization — reordering is the point of the fault.
	for _, dd := range f.DupDelays {
		dm := m
		dm.Seq = p.nextSeq()
		w.deliverAfter(dm, delay+dd, nil)
	}
	if f.Drop {
		// Lost on the wire: the sender still observes a plausible arrival.
		return arrival
	}
	if f.Reorder {
		w.deliverAfter(m, arrival-now, nil)
		return arrival
	}
	ps := p.out[to]
	if ps == nil {
		ps = &pairState{}
		ps.cond = sync.NewCond(&ps.mu)
		p.out[to] = ps
	}
	if arrival <= ps.lastArrival {
		arrival = ps.lastArrival + 1e-9 // keep modeled arrivals increasing
	}
	ps.lastArrival = arrival
	w.deliverAfter(m, arrival-now, ps)
	return arrival
}

func (p *proc) nextSeq() uint64 {
	p.seq++
	return p.seq
}

// recv pops the oldest message; with wait set it blocks for one until the
// world stops.
func (p *proc) recv(wait bool) (runenv.Msg, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.mboxHead == len(p.mailbox) {
		if !wait || p.w.stopped.Load() {
			return runenv.Msg{}, false
		}
		p.cond.Wait()
	}
	m := p.mailbox[p.mboxHead]
	p.mailbox[p.mboxHead] = runenv.Msg{} // drop the payload reference
	p.mboxHead++
	if p.mboxHead == len(p.mailbox) {
		p.mailbox = p.mailbox[:0]
		p.mboxHead = 0
	}
	return m, true
}

func (e *env) Recv() (runenv.Msg, bool)     { return e.p.recv(false) }
func (e *env) RecvWait() (runenv.Msg, bool) { return e.p.recv(true) }

func (e *env) Pending() int {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	return len(e.p.mailbox) - e.p.mboxHead
}

func (e *env) Stopped() bool { return e.p.w.stopped.Load() }

func (e *env) Stop() { e.p.w.stop() }

// Rand builds the generator on first use: the engine never draws from it, and
// a source is 5 KB per rank. Only the rank's own goroutine touches it.
func (e *env) Rand() *rand.Rand {
	p := e.p
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.w.cfg.Seed + int64(p.id)*7919))
	}
	return p.rng
}

func (e *env) LastSendSeq() uint64 { return e.p.lastSend }

func (e *env) Trace(ev trace.Event) {
	if t := e.p.w.cfg.Trace; t != nil {
		t.Add(ev)
	}
}
