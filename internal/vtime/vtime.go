// Package vtime is a deterministic discrete-event runtime for the process
// model defined in internal/runenv.
//
// Each process runs in its own goroutine, but processes only execute when
// the scheduler hands them control. Events are totally ordered by the key
// (time, source process, per-source counter); the key of an event is fixed
// at creation and independent of the order in which the scheduler happens to
// execute processes, so a given configuration and seed always produces the
// same execution, the same message interleavings and the same virtual
// end-to-end times — which is what makes the paper's experiments
// reproducible on any host.
//
// Deferred wakes: a process hands control back only where it can observe
// or affect the world. Work and Sleep advance the caller's own clock and
// consume the counter their wake event would have carried, but schedule
// nothing; the one wake that matters — the last — is scheduled (and the
// process yields) on entry to the next call that looks at or acts on anything
// outside the process: Recv, RecvWait, Pending, Stopped, Stop, Send (the
// Delay and FaultHook hooks may keep state that several senders share),
// Trace when tracing is on, and the body's return. Now, Rand and
// LastSendSeq do not yield. The execution is bit-identical to scheduling
// every wake (see proc.advance, proc.sync and DESIGN.md §9.4), at a
// fraction of the hand-offs: between two such calls a process sees nothing,
// so its intermediate wakes only ever handed control back and forth.
//
// The scheduler is sequential: exactly one process executes at any moment.
// Hosts with several cores are filled with whole runs instead (the
// experiments pool, the service scheduler), which is both simpler and scales
// better than parallelism inside one run.
package vtime

import (
	"fmt"
	"math/rand"

	"aiac/internal/runenv"
	"aiac/internal/trace"
)

type evKind uint8

const (
	evWake evKind = iota
	evDeliver
)

// event is one scheduled wake or delivery. Events are totally ordered by
// (t, src, cnt): time first, then source process, then the source's private
// event counter. Unlike a globally assigned sequence number, the key depends
// only on the creating process's own deterministic history, never on the
// order in which the scheduler interleaved other processes.
type event struct {
	t    float64
	src  int    // creating process
	cnt  uint64 // creating process's event counter (unique per src)
	kind evKind
	proc int // destination process
	msg  runenv.Msg
}

// eventHeap is a binary min-heap over (t, src, cnt), hand-rolled on the
// concrete event type. container/heap would box every pushed event into an
// `any`, allocating once per scheduled event on the scheduler's hottest
// path; the concrete version allocates only when the backing slice grows.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	if h[i].src != h[j].src {
		return h[i].src < h[j].src
	}
	return h[i].cnt < h[j].cnt
}

func (h *eventHeap) pushEv(e event) {
	hh := append(*h, e)
	*h = hh
	for i := len(hh) - 1; i > 0; {
		parent := (i - 1) / 2
		if !hh.less(i, parent) {
			break
		}
		hh[i], hh[parent] = hh[parent], hh[i]
		i = parent
	}
}

func (h *eventHeap) popEv() event {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	hh[n] = event{} // drop the payload reference for the GC
	hh = hh[:n]
	*h = hh
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && hh.less(r, c) {
			c = r
		}
		if !hh.less(c, i) {
			break
		}
		hh[i], hh[c] = hh[c], hh[i]
		i = c
	}
	return top
}

type proc struct {
	id     int
	clock  float64
	resume chan struct{}
	// yielded is this process's private handoff back to whoever resumed it
	// (the run loop or stopWorld).
	yielded chan struct{}
	// mailbox[mboxHead:] holds the undelivered messages. Popping advances
	// the head instead of reslicing from the front, so the backing array's
	// capacity is reused (resetting to empty when drained) rather than
	// leaked one slot per message.
	mailbox  []runenv.Msg
	mboxHead int
	waiting  bool // blocked in RecvWait
	sleeping bool // has a pending evWake
	finished bool
	cnt      uint64 // event counter: tie-break + Msg.Seq for events this proc creates
	lastSend uint64 // Msg.Seq of the primary copy of the most recent Send
	// deferred is the counter of the most recent Work/Sleep wake that was
	// applied to clock without being scheduled (0: none); see sync.
	deferred uint64
	// handoffs counts runProc calls for this process; read by the tests and
	// BenchmarkSweep (export_test.go).
	handoffs int64
	rng      *rand.Rand // made by the first Rand call
	sched    *Scheduler
}

func (p *proc) mboxEmpty() bool { return p.mboxHead >= len(p.mailbox) }

func (p *proc) mboxPop() runenv.Msg {
	m := p.mailbox[p.mboxHead]
	p.mailbox[p.mboxHead] = runenv.Msg{} // drop the payload reference
	p.mboxHead++
	if p.mboxHead == len(p.mailbox) {
		p.mailbox = p.mailbox[:0]
		p.mboxHead = 0
	}
	return m
}

func (p *proc) nextCnt() uint64 {
	p.cnt++
	return p.cnt
}

// Scheduler is a single-use deterministic world. Create one with New, then
// call Run.
type Scheduler struct {
	cfg   runenv.Config
	procs []*proc
	// events holds every future event.
	events  eventHeap
	stopped bool
	// live counts processes whose body has not returned.
	live int
	// Deadlocked is set when the run ended because every live process was
	// blocked in RecvWait with no pending events.
	Deadlocked bool
	// TimedOut is set when the run was stopped by cfg.MaxTime.
	TimedOut bool
	// Canceled is set when the run was stopped by cfg.Canceled.
	Canceled bool
	// fifo tracks the last arrival time per (from,to) pair — flat,
	// fifo[from*procs+to] — to keep per-pair delivery FIFO even if the
	// delay model is not monotone in message size.
	fifo []float64
}

// New creates a scheduler for the given configuration.
func New(cfg runenv.Config) *Scheduler {
	return &Scheduler{cfg: cfg.Normalize()}
}

// Run executes the bodies to completion (or stop) and returns the largest
// process clock reached. It must be called exactly once.
func (s *Scheduler) Run(bodies []runenv.Body) float64 {
	if len(bodies) == 0 {
		return 0
	}
	s.setup(bodies)
	// Kick every process off at t=0, in rank order.
	for _, p := range s.procs {
		s.runProc(p)
	}
	for s.live > 0 {
		if s.events.Len() == 0 {
			// No future events: either everyone who is alive waits on a
			// message that will never come (deadlock), or a process is
			// stopped mid-unwind.
			s.Deadlocked = s.anyWaiting()
			s.stopWorld()
			break
		}
		if s.cfg.MaxTime > 0 && s.events[0].t > s.cfg.MaxTime {
			s.TimedOut = true
			s.stopWorld()
			break
		}
		if s.cfg.Canceled != nil && s.cfg.Canceled() {
			s.Canceled = true
			s.stopWorld()
			break
		}
		s.exec(s.events.popEv())
	}
	return s.endTime()
}

// setup builds the process set, the event heap and the per-pair FIFO table.
func (s *Scheduler) setup(bodies []runenv.Body) {
	n := len(bodies)
	mboxCap := 4
	if h := s.cfg.EventCapHint; h > 0 && h/n > mboxCap {
		mboxCap = h / n
	}
	s.procs = make([]*proc, n)
	s.fifo = make([]float64, n*n)
	s.live = n
	for i := range bodies {
		p := &proc{
			id:      i,
			resume:  make(chan struct{}),
			yielded: make(chan struct{}),
			mailbox: make([]runenv.Msg, 0, mboxCap),
			sched:   s,
		}
		s.procs[i] = p
		body := bodies[i]
		go func() {
			<-p.resume
			body(&env{p: p})
			p.sync() // finish at the clock the body reached, not before
			p.finished = true
			s.live--
			p.yielded <- struct{}{}
		}()
	}
	if h := s.cfg.EventCapHint; h > 0 {
		s.events = make(eventHeap, 0, h)
	}
}

// exec processes one event popped from the heap.
func (s *Scheduler) exec(ev event) {
	p := s.procs[ev.proc]
	if p.finished {
		return
	}
	switch ev.kind {
	case evWake:
		p.sleeping = false
		p.clock = ev.t
		s.runProc(p)
	case evDeliver:
		m := ev.msg
		m.RecvT = ev.t
		p.mailbox = append(p.mailbox, m)
		if obs := s.cfg.Observer; obs != nil {
			obs.MsgDelivered(m, len(p.mailbox)-p.mboxHead)
		}
		if p.waiting {
			p.waiting = false
			if ev.t > p.clock {
				p.clock = ev.t
			}
			s.runProc(p)
		}
	}
}

// stopWorld sets the stop flag and lets every live process observe it and
// unwind. Processes blocked in RecvWait are resumed; processes with a
// pending wake get it delivered immediately, in rank order.
func (s *Scheduler) stopWorld() {
	s.stopped = true
	for {
		progressed := false
		for _, p := range s.procs {
			if p.finished {
				continue
			}
			if p.waiting || p.sleeping {
				p.waiting = false
				p.sleeping = false
				s.runProc(p)
				progressed = true
			}
		}
		if s.live == 0 {
			return
		}
		if !progressed {
			// A live process yielded without blocking primitives —
			// cannot happen with the current env implementation.
			panic(fmt.Sprintf("vtime: stopWorld stalled with %d live processes", s.live))
		}
	}
}

func (s *Scheduler) anyWaiting() bool {
	for _, p := range s.procs {
		if !p.finished && p.waiting {
			return true
		}
	}
	return false
}

func (s *Scheduler) endTime() float64 {
	end := 0.0
	for _, p := range s.procs {
		if p.clock > end {
			end = p.clock
		}
	}
	return end
}

// runProc hands control to p until it yields back.
func (s *Scheduler) runProc(p *proc) {
	p.handoffs++
	p.resume <- struct{}{}
	<-p.yielded
}

// yield returns control from the running process to its runner and blocks
// until this process is resumed.
func (p *proc) yield() {
	p.yielded <- struct{}{}
	<-p.resume
}

// env adapts a proc to runenv.Env. All methods are called only while the
// process is the single running process, so the state they touch (the heap,
// the proc itself, the fifo table) needs no locking.
type env struct {
	p *proc
}

func (e *env) Rank() int     { return e.p.id }
func (e *env) NumProcs() int { return len(e.p.sched.procs) }
func (e *env) Now() float64  { return e.p.clock }

func (e *env) stopped() bool { return e.p.sched.stopped }

// Work (like Sleep) reads the stop flag without syncing: it only changes
// while the process is yielded, and it has not yielded since it last looked.
func (e *env) Work(units float64) {
	s := e.p.sched
	if e.stopped() || units <= 0 {
		return
	}
	d := s.cfg.ComputeTime(e.p.id, e.p.clock, units)
	e.p.advance(d)
}

func (e *env) Sleep(seconds float64) {
	if e.stopped() || seconds <= 0 {
		return
	}
	e.p.advance(seconds)
}

// advance moves the process d seconds into its future. Normally the wake is
// deferred: the clock jumps, the wake's counter is consumed and remembered,
// and nothing is scheduled until the process next touches the world (see
// sync). Between two such touches a process observes nothing and creates no
// event, so executing its intermediate wakes would only have handed control
// back and forth.
//
// One case schedules the wake eagerly: a wake past MaxTime must stay in the
// heap unexecuted, so that the run times out on it with the clock still at
// its old value. (stopWorld needs no case
// of its own: Work and Sleep are no-ops once the world has stopped.)
func (p *proc) advance(d float64) {
	s := p.sched
	t := p.clock + d
	if s.cfg.MaxTime > 0 && t > s.cfg.MaxTime {
		p.sync()
		p.wake(t, p.nextCnt())
		return
	}
	p.clock = t
	p.deferred = p.nextCnt()
}

// sync makes the process current with the world: if its clock ran ahead on
// deferred wakes, the last of them is scheduled now, under the key it would
// always have had, and the process yields until the scheduler reaches it.
// Every event with a smaller key — deliveries into this mailbox, other
// processes' stops — has then been executed, as if each wake had been.
func (p *proc) sync() {
	if p.deferred == 0 {
		return
	}
	cnt := p.deferred
	p.deferred = 0
	p.wake(p.clock, cnt)
}

// wake schedules this process's own wake event and yields until it fires
// (or the world stops).
func (p *proc) wake(t float64, cnt uint64) {
	p.sleeping = true
	p.sched.events.pushEv(event{t: t, src: p.id, cnt: cnt, kind: evWake, proc: p.id})
	p.yield()
}

func (e *env) Send(to, kind int, payload any, bytes int) float64 {
	p := e.p
	s := p.sched
	if to < 0 || to >= len(s.procs) {
		panic(fmt.Sprintf("vtime: send to invalid process %d", to))
	}
	// Delay and FaultHook may keep state that several senders share
	// (runenv.Config), so sends must reach them in event-key order.
	p.sync()
	delay := s.cfg.Delay(p.id, to, bytes, p.clock)
	var f runenv.MsgFault
	if s.cfg.FaultHook != nil {
		f = s.cfg.FaultHook(p.id, to, kind, bytes, p.clock, delay)
	}
	arrival := p.clock + delay + f.ExtraDelay
	fi := p.id*len(s.procs) + to
	if !f.Reorder {
		if last := s.fifo[fi]; arrival < last {
			arrival = last
		}
		// A dropped message never arrives, so it must not constrain the
		// arrival times of later (delivered) messages on the link.
		if !f.Drop {
			s.fifo[fi] = arrival
		}
	}
	m := runenv.Msg{
		From: p.id, To: to, Kind: kind, Payload: payload, Bytes: bytes,
		SendT: p.clock, Seq: p.nextCnt(),
	}
	p.lastSend = m.Seq
	if !f.Drop {
		s.events.pushEv(event{t: arrival, src: p.id, cnt: m.Seq, kind: evDeliver, proc: to, msg: m})
	}
	// Duplicate copies ride outside the FIFO clamp: an independently
	// delayed copy arriving out of order is exactly the reordering fault
	// the engine must tolerate.
	for _, dd := range f.DupDelays {
		dm := m
		dm.Seq = p.nextCnt()
		s.events.pushEv(event{t: p.clock + delay + dd, src: p.id, cnt: dm.Seq, kind: evDeliver, proc: to, msg: dm})
	}
	return arrival
}

func (e *env) Recv() (runenv.Msg, bool) {
	p := e.p
	p.sync()
	if p.mboxEmpty() {
		return runenv.Msg{}, false
	}
	return p.mboxPop(), true
}

func (e *env) RecvWait() (runenv.Msg, bool) {
	p := e.p
	p.sync()
	for p.mboxEmpty() {
		if e.stopped() {
			return runenv.Msg{}, false
		}
		p.waiting = true
		p.yield()
	}
	return p.mboxPop(), true
}

func (e *env) Pending() int {
	e.p.sync()
	return len(e.p.mailbox) - e.p.mboxHead
}

func (e *env) Stopped() bool {
	e.p.sync()
	return e.stopped()
}

func (e *env) Stop() {
	e.p.sync() // the stop takes effect at the caller's clock, not before
	e.p.sched.stopped = true
}

// Rand builds the generator on first use: the engine never draws from it, and
// a source is 5 KB per process.
func (e *env) Rand() *rand.Rand {
	p := e.p
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.sched.cfg.Seed + int64(p.id)*7919))
	}
	return p.rng
}

func (e *env) LastSendSeq() uint64 { return e.p.lastSend }

func (e *env) Trace(ev trace.Event) {
	t := e.p.sched.cfg.Trace
	if t == nil {
		return
	}
	// Only when tracing is on: the entry must land in the log after those of
	// every event with a smaller key than the wake it follows.
	e.p.sync()
	t.Add(ev)
}

// Runner adapts the scheduler to runenv.Runner.
type Runner struct{}

// Run implements runenv.Runner by executing the bodies on a fresh scheduler.
func (Runner) Run(cfg runenv.Config, bodies []runenv.Body) float64 {
	return New(cfg).Run(bodies)
}
