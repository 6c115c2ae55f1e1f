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
// every wake (see proc.advance, proc.sync and DESIGN.md §9.5), at a
// fraction of the hand-offs: between two such calls a process sees nothing,
// so its intermediate wakes only ever handed control back and forth.
//
// By default the scheduler is sequential: exactly one process executes at
// any moment. When Config.SimWorkers > 1 and Config.MinDelay/Groups
// describe a conservative lookahead (see runenv.Config), the scheduler runs
// groups of processes concurrently inside provably safe event windows and
// produces bit-identical results; see parallel.go for the algorithm and
// DESIGN.md for the contract.
package vtime

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"aiac/internal/runenv"
	"aiac/internal/trace"
)

type evKind uint8

const (
	evWake evKind = iota
	evDeliver
)

// eventKey is the total order over events: time first, then source process,
// then the source's private event counter. Unlike a globally assigned
// sequence number, the key depends only on the creating process's own
// deterministic history, never on the order in which the scheduler
// interleaved other processes — the property that lets the parallel
// scheduler reproduce the sequential execution exactly.
type eventKey struct {
	t   float64
	src int
	cnt uint64
}

func keyLess(a, b eventKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.cnt < b.cnt
}

type event struct {
	t    float64
	src  int    // creating process
	cnt  uint64 // creating process's event counter (unique per src)
	kind evKind
	proc int // destination process
	msg  runenv.Msg
}

func (e *event) key() eventKey { return eventKey{e.t, e.src, e.cnt} }

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
	// (the sequential loop, a group runner, or stopWorld).
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
	// stopSelf is set when this process called Stop() under the parallel
	// scheduler: the stop is visible to the caller immediately and to
	// everyone else at the next window boundary (see parallel.go).
	stopSelf bool
	cnt      uint64 // event counter: tie-break + Msg.Seq for events this proc creates
	lastSend uint64 // Msg.Seq of the primary copy of the most recent Send
	// deferred is the counter of the most recent Work/Sleep wake that was
	// applied to clock without being scheduled (0: none); see sync.
	deferred uint64
	// handoffs counts runProc calls for this process; read by the tests and
	// BenchmarkSweep (export_test.go).
	handoffs int64
	rng      *rand.Rand
	sched    *Scheduler
	grp      *group
	// sliceKey is the key of the event whose processing resumed this proc,
	// used to tag buffered trace entries for the deterministic commit merge.
	sliceKey eventKey
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

// obsRecord is one buffered Observer callback (parallel mode): replayed in
// committed event order so telemetry is bit-identical to a sequential run.
type obsRecord struct {
	key   eventKey
	msg   runenv.Msg
	depth int
}

// traceRecord is one buffered Env.Trace call (parallel mode), tagged with
// the key of the execution slice that emitted it.
type traceRecord struct {
	key eventKey
	ev  trace.Event
}

// group is a set of processes that execute sequentially with respect to
// each other on a private event heap. The sequential scheduler uses a
// single group holding every process; the parallel scheduler runs disjoint
// groups concurrently within safe horizons (see parallel.go).
type group struct {
	idx   int
	procs []*proc // members, in rank order
	// events holds this group's future events (all events whose destination
	// process belongs to the group).
	events eventHeap
	// outbox buffers events destined for other groups during a parallel
	// window; they are routed at commit. Always empty in sequential mode.
	outbox []event
	// obsBuf / traceBuf hold buffered side effects in processing order;
	// the deferred flush merges them across groups into the exact
	// sequential order (see flushSideEffects in parallel.go). Heads index
	// the next unmerged entry. A group's records may stay buffered across
	// several windows: within one group they are always key-sorted, so the
	// k-way merge can be deferred until the safe frontier passes them.
	obsBuf    []obsRecord
	obsHead   int
	traceBuf  []traceRecord
	traceHead int
	// horizon is this group's exclusive event-time bound for the current
	// parallel window (written by the coordinator between windows).
	horizon float64
	// nexec counts events this group executed inside parallel windows.
	nexec int64
}

// Scheduler is a single-use deterministic world. Create one with New, then
// call Run.
type Scheduler struct {
	cfg     runenv.Config
	procs   []*proc
	groups  []*group
	groupOf []int // proc id -> index into groups
	// parallel is true when Run uses the conservative-lookahead windowed
	// scheduler; see parallel.go.
	parallel bool
	// unwinding is true while stopWorld drains processes: side effects go
	// direct (the coordinator is the only runner) exactly as in sequential
	// mode.
	unwinding bool
	stopped   bool
	// live counts processes whose body has not returned.
	live atomic.Int64
	// Deadlocked is set when the run ended because every live process was
	// blocked in RecvWait with no pending events.
	Deadlocked bool
	// TimedOut is set when the run was stopped by cfg.MaxTime.
	TimedOut bool
	// Canceled is set when the run was stopped by cfg.Canceled.
	Canceled bool
	// fifo tracks the last arrival time per (from,to) pair — flat,
	// fifo[from*procs+to] — to keep per-pair delivery FIFO even if the
	// delay model is not monotone in message size. Each row is written only
	// by its sending process, so rows stay race-free under the parallel
	// scheduler.
	fifo []float64

	par parState // parallel-mode state (parallel.go)
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
	if s.parallel {
		return s.runParallel()
	}
	g := s.groups[0]
	// Kick every process off at t=0, in rank order.
	s.kickoff(g)
	for s.live.Load() > 0 {
		if g.events.Len() == 0 {
			// No future events: either everyone who is alive waits on a
			// message that will never come (deadlock), or a process is
			// stopped mid-unwind.
			s.Deadlocked = s.anyWaiting()
			s.stopWorld()
			break
		}
		if s.cfg.MaxTime > 0 && g.events[0].t > s.cfg.MaxTime {
			s.TimedOut = true
			s.stopWorld()
			break
		}
		if s.cfg.Canceled != nil && s.cfg.Canceled() {
			s.Canceled = true
			s.stopWorld()
			break
		}
		ev := g.events.popEv()
		s.exec(g, ev)
	}
	return s.endTime()
}

// setup builds the process set, the group partition and the per-pair FIFO
// table, and decides whether the parallel scheduler is usable.
func (s *Scheduler) setup(bodies []runenv.Body) {
	n := len(bodies)
	mboxCap := 4
	if h := s.cfg.EventCapHint; h > 0 && h/n > mboxCap {
		mboxCap = h / n
	}
	s.procs = make([]*proc, n)
	s.fifo = make([]float64, n*n)
	s.live.Store(int64(n))
	for i := range bodies {
		p := &proc{
			id:      i,
			resume:  make(chan struct{}),
			yielded: make(chan struct{}),
			mailbox: make([]runenv.Msg, 0, mboxCap),
			rng:     rand.New(rand.NewSource(s.cfg.Seed + int64(i)*7919)),
			sched:   s,
		}
		s.procs[i] = p
		body := bodies[i]
		go func() {
			<-p.resume
			body(&env{p: p})
			p.sync() // finish at the clock the body reached, not before
			p.finished = true
			s.live.Add(-1)
			p.yielded <- struct{}{}
		}()
	}

	gids := s.groupIDs(n)
	ng := 0
	for _, g := range gids {
		if g+1 > ng {
			ng = g + 1
		}
	}
	s.parallel = s.cfg.SimWorkers > 1 && s.cfg.MinDelay > 0 && ng > 1
	if !s.parallel {
		gids = make([]int, n) // all zero: one group
		ng = 1
	}
	s.groupOf = gids
	s.groups = make([]*group, ng)
	for i := range s.groups {
		s.groups[i] = &group{idx: i}
	}
	heapCap := s.cfg.EventCapHint
	if heapCap > 0 {
		if c := heapCap / ng; c > 0 {
			heapCap = c
		}
		for _, g := range s.groups {
			g.events = make(eventHeap, 0, heapCap)
		}
	}
	for i, p := range s.procs {
		p.grp = s.groups[gids[i]]
		p.grp.procs = append(p.grp.procs, p)
	}
	if s.parallel {
		s.buildLookahead()
	}
}

// groupIDs returns the dense group id per process from cfg.Groups (nil
// means every process is its own group, the conservative default).
func (s *Scheduler) groupIDs(n int) []int {
	src := s.cfg.Groups
	if src == nil {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	if len(src) != n {
		panic(fmt.Sprintf("vtime: Config.Groups has %d entries for %d processes", len(src), n))
	}
	dense := make(map[int]int, n)
	ids := make([]int, n)
	for i, g := range src {
		d, ok := dense[g]
		if !ok {
			d = len(dense)
			dense[g] = d
		}
		ids[i] = d
	}
	return ids
}

// kickoff starts the group's processes at t=0, in rank order. Kickoff
// slices are tagged with a key below every real event so buffered trace
// entries merge ahead of everything, in rank order — exactly the
// sequential start-up order.
func (s *Scheduler) kickoff(g *group) {
	for _, p := range g.procs {
		if !p.finished {
			p.sliceKey = eventKey{t: math.Inf(-1), src: p.id}
			s.runProc(p)
		}
	}
}

// exec processes one event popped from g's heap. It is the shared core of
// the sequential loop and the parallel window runner; in parallel mode
// (outside stopWorld) Observer callbacks are buffered for the commit merge
// instead of firing immediately.
func (s *Scheduler) exec(g *group, ev event) {
	p := s.procs[ev.proc]
	if p.finished {
		return
	}
	switch ev.kind {
	case evWake:
		p.sleeping = false
		p.clock = ev.t
		p.sliceKey = ev.key()
		s.runProc(p)
	case evDeliver:
		m := ev.msg
		m.RecvT = ev.t
		p.mailbox = append(p.mailbox, m)
		if obs := s.cfg.Observer; obs != nil {
			depth := len(p.mailbox) - p.mboxHead
			if s.parallel && !s.unwinding {
				g.obsBuf = append(g.obsBuf, obsRecord{key: ev.key(), msg: m, depth: depth})
			} else {
				obs.MsgDelivered(m, depth)
			}
		}
		if p.waiting {
			p.waiting = false
			if ev.t > p.clock {
				p.clock = ev.t
			}
			p.sliceKey = ev.key()
			s.runProc(p)
		}
	}
}

// stopWorld sets the stop flag and lets every live process observe it and
// unwind. Processes blocked in RecvWait are resumed; processes with a
// pending wake get it delivered immediately. Always runs single-threaded
// (the parallel scheduler only calls it between windows), resuming
// processes in rank order — identical in both modes.
func (s *Scheduler) stopWorld() {
	s.stopped = true
	s.unwinding = true
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
		live := s.live.Load()
		if live == 0 {
			return
		}
		if !progressed {
			// A live process yielded without blocking primitives —
			// cannot happen with the current env implementation.
			panic(fmt.Sprintf("vtime: stopWorld stalled with %d live processes", live))
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
// process is the single running process of its group, so the state they
// touch (the group's heap and buffers, the proc itself, the proc's own
// fifo rows) needs no locking even under the parallel scheduler.
type env struct {
	p *proc
}

func (e *env) Rank() int     { return e.p.id }
func (e *env) NumProcs() int { return len(e.p.sched.procs) }
func (e *env) Now() float64  { return e.p.clock }

func (e *env) stopped() bool { return e.p.sched.stopped || e.p.stopSelf }

// Work (like Sleep) reads the stop flags without syncing: they only change
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
// Two cases schedule the wake eagerly, exactly as every wake used to be, so
// that no check is weakened. A wake past MaxTime must stay in the heap
// unexecuted: the run times out on it with the clock still at its old value.
// And under the windowed scheduler only a wake that the current window
// would have executed anyway — strictly below the group's horizon, outside
// the start-up window, which executes none — is deferred: between windows
// the heaps then hold exactly the events they always did, so the scheduler
// plans the same windows and commit checks every cross-group send against
// the same horizons. (A degenerate round needs no test of its own: its one
// event sits at or past its group's horizon, and so does any wake after it.
// Nor does stopWorld: Work and Sleep are no-ops once the world has stopped.)
func (p *proc) advance(d float64) {
	s := p.sched
	t := p.clock + d
	eager := s.cfg.MaxTime > 0 && t > s.cfg.MaxTime
	if s.parallel && !eager {
		eager = t >= p.grp.horizon || s.par.kick
	}
	if !eager {
		p.clock = t
		p.deferred = p.nextCnt()
		return
	}
	p.sync()
	p.wake(t, p.nextCnt())
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
	p.grp.events.pushEv(event{t: t, src: p.id, cnt: cnt, kind: evWake, proc: p.id})
	p.yield()
}

// route delivers a freshly created event: into the creating process's
// group heap (sequential mode, intra-group destinations, and stop-world
// unwinding, where events are dead anyway), or into the group's outbox for
// the cross-group commit merge.
func (p *proc) route(ev event) {
	s := p.sched
	g := p.grp
	if s.parallel && !s.unwinding && s.groupOf[ev.proc] != g.idx {
		g.outbox = append(g.outbox, ev)
		return
	}
	g.events.pushEv(ev)
}

func (e *env) Send(to, kind int, payload any, bytes int) float64 {
	p := e.p
	s := p.sched
	if to < 0 || to >= len(s.procs) {
		panic(fmt.Sprintf("vtime: send to invalid process %d", to))
	}
	// Delay and FaultHook may keep state shared by the senders of a group
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
		p.route(event{t: arrival, src: p.id, cnt: m.Seq, kind: evDeliver, proc: to, msg: m})
	}
	// Duplicate copies ride outside the FIFO clamp: an independently
	// delayed copy arriving out of order is exactly the reordering fault
	// the engine must tolerate.
	for _, dd := range f.DupDelays {
		dm := m
		dm.Seq = p.nextCnt()
		p.route(event{t: p.clock + delay + dd, src: p.id, cnt: dm.Seq, kind: evDeliver, proc: to, msg: dm})
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
	s := e.p.sched
	if s.parallel && !s.unwinding {
		// Visible to the calling process immediately, to everyone else at
		// the next window boundary (see parallel.go).
		e.p.stopSelf = true
		s.par.pendingStop.Store(true)
		return
	}
	s.stopped = true
}

func (e *env) Rand() *rand.Rand { return e.p.rng }

func (e *env) LastSendSeq() uint64 { return e.p.lastSend }

func (e *env) Trace(ev trace.Event) {
	s := e.p.sched
	t := s.cfg.Trace
	if t == nil {
		return
	}
	// Only when tracing is on: the entry must land in the log (or be tagged
	// with the slice key) of the wake it follows.
	e.p.sync()
	if s.parallel && !s.unwinding {
		g := e.p.grp
		g.traceBuf = append(g.traceBuf, traceRecord{key: e.p.sliceKey, ev: ev})
		return
	}
	t.Add(ev)
}

// Runner adapts the scheduler to runenv.Runner.
type Runner struct{}

// Run implements runenv.Runner by executing the bodies on a fresh scheduler.
func (Runner) Run(cfg runenv.Config, bodies []runenv.Body) float64 {
	return New(cfg).Run(bodies)
}
