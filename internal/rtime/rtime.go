// Package rtime is the real-time runtime for the process model in
// internal/runenv: every process is a goroutine running truly in parallel,
// Work/Sleep consume (scaled) wall-clock time, and a local Send puts the
// message straight into its receiver's mailbox, stamped with its modeled
// arrival (as vtime does), which the receiver sees once that has passed.
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
	// Stop asks the rest of the world to stop, because this World's
	// time limit passed or its run was canceled; a stop that came in over
	// the Link (StopLocal) is not echoed. It is called at most once.
	Stop()
}

// World runs the locally hosted ranks of a world of `total` ranks on one
// model clock. It implements runenv.PartialRunner.
type World struct {
	speedup float64
	start   time.Time
	link    Link
	procs   []*proc // by rank; nil where the rank is hosted elsewhere

	stopped atomic.Bool
	done    chan struct{} // closed when stopped is set
	// firstStop is 0 until a stop begins, then 1 + the cause of the first
	// (cause 0: the rest of the world's stop, through StopLocal).
	firstStop atomic.Uint32

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
	id int
	w  *World
	// seq is the sender-local event counter behind Msg.Seq; lastSend is the
	// Msg.Seq of the primary copy of the most recent Send.
	seq, lastSend uint64
	// lastArrival is, by destination rank, the FIFO state runenv.Decide
	// keeps.
	lastArrival []float64
	timer       *time.Timer // paces the rank's waits

	mu sync.Mutex
	// mailbox[mboxHead:] holds the unreceived messages — vtime's head-index
	// queue: popping advances the head and resets to empty when drained,
	// and a full array is compacted before it grows, so the backing array
	// is reused instead of walked off from the front. mailbox[mboxHead:seen]
	// are visible (their arrival has passed and the Observer was told), the
	// rest wait for their arrival, in arrival order.
	mailbox        []runenv.Msg
	mboxHead, seen int
	finished       bool          // the body has returned: nothing enters any more, as in vtime
	wake           chan struct{} // a token: the head changed since the rank last looked
}

// NewWorld returns a world of total ranks that hosts localRanks, whose model
// clock reads zero at start and runs speedup times faster than the wall
// clock. link reaches the other ranks; it may be nil when there are none.
func NewWorld(total int, localRanks []int, speedup float64, start time.Time, link Link) *World {
	w := &World{speedup: speedup, start: start, link: link, procs: make([]*proc, total), done: make(chan struct{})}
	for _, rank := range localRanks {
		p := &proc{id: rank, w: w, lastArrival: make([]float64, total), timer: time.NewTimer(time.Hour), wake: make(chan struct{}, 1)}
		p.timer.Stop()
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
// their world ranks (all of them hosted here) and returns once they are
// done. A message still on its way then is never received, nor observed.
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
		watchdog = time.AfterFunc(w.toWall(cfg.MaxTime), func() { w.stop(runenv.StopMaxTime) })
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
			for !cfg.Canceled() {
				select {
				case <-pollDone:
					return
				case <-tick.C:
				}
			}
			w.stop(runenv.StopCanceled)
		}()
	}
	var wg sync.WaitGroup
	for rank, body := range bodies {
		wg.Add(1)
		go func(p *proc, body runenv.Body) {
			defer wg.Done()
			body(&env{p: p})
			p.mu.Lock() // close the mailbox: what arrived is seen, nothing more enters
			p.see()
			p.finished = true
			p.mu.Unlock()
		}(w.procs[rank], body)
	}
	wg.Wait()
	if watchdog != nil {
		watchdog.Stop()
	}
	if first := w.firstStop.Load(); first > 1 && cfg.OnStop != nil {
		cfg.OnStop(runenv.StopCause(first - 1))
	}
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

// deliver posts a message from a rank hosted elsewhere, due on arrival.
func (w *World) deliver(m runenv.Msg) {
	m.RecvT = w.Now()
	w.procs[m.To].post(m)
	if t := w.cfg.Trace; t != nil {
		// The delivery half of a cross-process message: T0 is the sender's
		// send time on the *sender's* clock (normalized at federation), T1
		// the local delivery time. Federate matches it to the send by
		// (Node, Seq) and collapses the pair into one Wire span.
		t.Add(trace.Event{
			T0: m.SendT, T1: m.RecvT, Node: m.From, To: m.To,
			Kind: trace.Wire, Iter: -1, Note: trace.WireDeliverNote, Seq: m.Seq,
		})
	}
}

// post puts m into the mailbox behind the visible messages and every other
// that arrives no later: the one place a message enters a mailbox.
func (p *proc) post(m runenv.Msg) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finished {
		return
	}
	p.see() // whatever arrived before m is seen at the depth it had
	if h := p.mboxHead; h > 0 && len(p.mailbox) == cap(p.mailbox) {
		n := copy(p.mailbox, p.mailbox[h:])
		clear(p.mailbox[n:])
		p.mailbox, p.mboxHead, p.seen = p.mailbox[:n], 0, p.seen-h
	}
	p.mailbox = append(p.mailbox, m)
	i := len(p.mailbox) - 1
	for ; i > p.seen && p.mailbox[i-1].RecvT > m.RecvT; i-- {
		p.mailbox[i] = p.mailbox[i-1]
	}
	p.mailbox[i] = m
	p.see()
	if i == p.mboxHead && len(p.wake) == 0 { // only posts fill wake, under mu
		p.wake <- struct{}{} // a new head: a waiting receiver has a new deadline
	}
}

// see makes visible, and tells the Observer of, what has arrived by now.
func (p *proc) see() {
	for p.seen < len(p.mailbox) && p.mailbox[p.seen].RecvT <= p.w.Now() {
		p.seen++
		if obs := p.w.cfg.Observer; obs != nil {
			obs.MsgDelivered(p.mailbox[p.seen-1], p.seen-p.mboxHead)
		}
	}
}

// StopLocal stops the ranks hosted here — no Work, Sleep or blocked RecvWait
// lasts beyond it — without telling the rest of the world.
func (w *World) StopLocal() {
	w.firstStop.CompareAndSwap(0, 1)
	if !w.stopped.Swap(true) {
		close(w.done)
	}
}

// stop is the global stop: unless a stop began already, ask the rest of the
// world, then stop here without waiting for the echo. cause is the
// watchdog's or the cancel poller's reason; RunRanks reports the first
// stop's.
func (w *World) stop(cause runenv.StopCause) {
	if w.firstStop.CompareAndSwap(0, uint32(cause)+1) && w.link != nil {
		w.link.Stop()
	}
	w.StopLocal()
}

type env struct{ p *proc }

func (e *env) Rank() int     { return e.p.id }
func (e *env) NumProcs() int { return len(e.p.w.procs) }
func (e *env) Now() float64  { return e.p.w.Now() }

// spinLimit is the last stretch of a wait, spent yielding: a timer rounds
// tiny durations up to the OS timer period (tens of microseconds), which at
// high Speedup would inflate modeled times by an order of magnitude or more.
const spinLimit = 100 * time.Microsecond

// pace spends d of wall-clock time, or less if the world stops.
func (p *proc) pace(d time.Duration) {
	if d <= 0 {
		return
	}
	target := time.Now().Add(d)
	if d > spinLimit && !p.sleep(d-spinLimit, nil) {
		return
	}
	for time.Now().Before(target) {
		runtime.Gosched()
	}
}

// sleep sleeps for d and reports whether it slept it all: a stop, or a
// token in wake (nil: none), ends it early. Only the rank's own goroutine
// sleeps on its timer.
func (p *proc) sleep(d time.Duration, wake chan struct{}) bool {
	p.timer.Reset(d)
	defer p.timer.Stop()
	select {
	case <-p.timer.C:
		return true
	case <-wake:
	case <-p.w.done:
	}
	return false
}

func (e *env) Work(units float64) {
	if p := e.p; units > 0 && !p.w.stopped.Load() {
		p.pace(p.w.toWall(p.w.cfg.ComputeTime(p.id, p.w.Now(), units)))
	}
}

func (e *env) Sleep(seconds float64) {
	if p := e.p; seconds > 0 && !p.w.stopped.Load() {
		p.pace(p.w.toWall(seconds))
	}
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
	// A rank hosted elsewhere gets its message at transport speed, and any
	// fault on the way is the Link's: FaultHook decides local fates only.
	// Its sender is still told the modeled arrival, so sender-side pacing
	// (the paper's Figure-4 mutual exclusion) behaves as on vtime.
	remote := !w.hosts(to)
	var f runenv.MsgFault
	if !remote && w.cfg.FaultHook != nil {
		f = w.cfg.FaultHook(p.id, to, kind, bytes, now, delay)
	}
	fate := runenv.Decide(now, delay, f, p.lastArrival[to])
	p.lastArrival[to] = fate.Last
	if remote {
		w.link.Send(m)
		return fate.Arrival
	}
	if fate.Deliver {
		m.RecvT = fate.Arrival
		w.procs[to].post(m)
	}
	for i := 0; i < fate.Dups(); i++ {
		dm := m
		dm.Seq, dm.RecvT = p.nextSeq(), fate.DupArrival(i)
		w.procs[to].post(dm)
	}
	return fate.Arrival
}

func (p *proc) nextSeq() uint64 {
	p.seq++
	return p.seq
}

// recv pops the first visible message; with wait set it blocks for one
// until the world stops.
func (p *proc) recv(wait bool) (runenv.Msg, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.see(); p.seen == p.mboxHead; p.see() {
		if !wait || p.w.stopped.Load() {
			return runenv.Msg{}, false
		}
		// Sleep until the head arrives, a new head is posted or the world
		// stops, whichever comes first; with no head, an hour stands in.
		due := time.Now().Add(time.Hour)
		if p.mboxHead < len(p.mailbox) {
			due = p.w.start.Add(p.w.toWall(p.mailbox[p.mboxHead].RecvT))
		}
		p.mu.Unlock()
		if d := time.Until(due) - spinLimit; d <= 0 || p.sleep(d, p.wake) {
			for time.Now().Before(due) && len(p.wake) == 0 && !p.w.stopped.Load() {
				runtime.Gosched()
			}
		}
		p.mu.Lock()
	}
	m := p.mailbox[p.mboxHead]
	p.mailbox[p.mboxHead] = runenv.Msg{} // drop the payload reference
	p.mboxHead++
	if p.mboxHead == len(p.mailbox) {
		p.mailbox = p.mailbox[:0]
		p.mboxHead, p.seen = 0, 0
	}
	return m, true
}

func (e *env) Recv() (runenv.Msg, bool)     { return e.p.recv(false) }
func (e *env) RecvWait() (runenv.Msg, bool) { return e.p.recv(true) }

func (e *env) Pending() int {
	p := e.p
	p.mu.Lock()
	defer p.mu.Unlock()
	p.see()
	return p.seen - p.mboxHead
}

func (e *env) Stopped() bool { return e.p.w.stopped.Load() }

func (e *env) LastSendSeq() uint64 { return e.p.lastSend }

func (e *env) Trace(ev trace.Event) {
	if t := e.p.w.cfg.Trace; t != nil {
		t.Add(ev)
	}
}
