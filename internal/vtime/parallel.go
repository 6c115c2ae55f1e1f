// Conservative-lookahead parallel scheduling (Chandy–Misra–Bryant style).
//
// The world is partitioned into process groups (runenv.Config.Groups) such
// that every link between processes of different groups has a modeled delay
// of at least runenv.Config.MinDelay — optionally refined per pair by
// runenv.Config.LinkMinDelay. Execution proceeds in windows, but unlike the
// classic global bound (everything below T0 + MinDelay is safe) each group
// gets its own demand-driven horizon:
//
//	H_g = min over groups h with runnable events of head(h) + lat(h, g)
//
// where head(h) is h's earliest pending event time and lat(h, g) is the
// min-plus closure of the per-group-pair delay bounds — the cheapest chain
// of cross-group hops from h to g, including lat(g, g), the cheapest cycle
// through g (the earliest a group's own sends can come back to haunt it via
// other groups). The closure, not the direct edge, is what makes per-group
// horizons sound: a message relayed a→k→b is bounded below by the path sum
// even when a and b share no direct link. Any event a group creates during
// its window is stamped at a clock >= its head, so a cross-group chain
// reaching g arrives at >= head(h) + lat(h, g) >= H_g (correctly-rounded
// float addition is monotone, so the bound holds bit-exactly). Groups
// therefore run concurrently inside their windows, each draining its
// private event heap in (t, src, cnt) key order; cross-group sends are
// buffered in per-group outboxes and routed at the window commit, where
// each event is checked against its destination group's horizon.
//
// Determinism argument: restricted to one group, the windowed execution
// pops exactly the events the sequential scheduler would pop, in the same
// key order — every future arrival into g lands at or past every horizon g
// has already drained to, so a group's processing order is the sequential
// order of its events. Side effects that leave the group (Observer
// callbacks, trace entries) are buffered in processing order — key-sorted
// within a group — and replayed by a k-way merge on smallest head key,
// which reconstructs the sequential scheduler's global processing order
// exactly. The replay is deferred and batched: records wait in their
// group's buffer until the global frontier F (the earliest pending event
// anywhere) passes their key, because any event processed in the future has
// t >= F, and flushes only run when enough records have accumulated or the
// run ends. The result — end time, per-process clocks, message contents and
// Seq numbers, telemetry, traces — is bit-identical to a sequential run.
//
// The one intentional divergence: Env.Stop() from one process becomes
// visible to other processes at the next window boundary rather than
// instantly (the engines never call Stop mid-run; see DESIGN.md).
package vtime

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// flushThreshold is the number of buffered side-effect records that
// triggers a deferred replay pass at the next commit. Below it, commits
// skip the merge entirely — batching many windows' records into one
// sequential tail instead of paying the merge every window.
const flushThreshold = 4096

// parState holds the parallel scheduler's coordination state; embedded in
// Scheduler so the sequential path pays nothing for it.
type parState struct {
	// pendingStop latches Env.Stop() calls made inside a window; the commit
	// turns it into the world-visible stopped flag.
	pendingStop atomic.Bool
	// kick marks the start-up window (processes kicked at t=0, no events).
	kick bool
	// degenerate marks a single-event fallback round: the commit skips the
	// per-destination horizon check (the horizons were not widened for it).
	degenerate bool
	// lat is the min-plus closure of the per-group-pair delay lower
	// bounds, flattened ng×ng; lat[h*ng+g] bounds how soon activity in
	// group h can cause an event in group g. +Inf where no chain exists.
	lat []float64
	// heads / active / scratch are per-window scratch buffers, reused to
	// keep the coordinator allocation-free.
	heads   []float64
	active  []*group
	scratch []*group
	// effWorkers is the number of worker goroutines actually started.
	effWorkers int
	// workCh feeds active groups to the worker pool (buffered, so the
	// coordinator never blocks on handoff); wg is the per-window barrier.
	workCh chan *group
	wg     sync.WaitGroup

	stats Stats
}

// Stats describes how a run executed; valid after Run returns (Scheduler.Stats).
type Stats struct {
	// Parallel reports whether the windowed parallel scheduler engaged (it
	// needs SimWorkers > 1, MinDelay > 0 and at least two groups).
	Parallel bool
	// Groups is the number of execution groups; Workers the worker
	// goroutines actually used (min of SimWorkers and Groups).
	Groups  int
	Workers int
	// Windows counts committed parallel windows (excluding the start-up
	// kick); SingleGroupWindows those with exactly one runnable group (no
	// concurrency); DegenerateWindows the single-event fallback rounds
	// where rounding collapsed every horizon.
	Windows            int64
	SingleGroupWindows int64
	DegenerateWindows  int64
	// Events counts events executed inside parallel windows.
	Events int64
	// WidthSum accumulates, over WidthWindows (group, window) pairs, each
	// active group's window width: its horizon minus the window's start
	// (the globally earliest pending event). WidthSum / WidthWindows is
	// the mean safe lookahead the adaptive per-group horizons achieved;
	// the old uniform scheme scores exactly MinDelay on this statistic
	// (every horizon was the global minimum head plus MinDelay), so any
	// excess over MinDelay is the adaptive protocol's contribution
	// (the uniform-bound baseline is exactly MinDelay).
	WidthSum     float64
	WidthWindows int64
	// Flushes counts deferred side-effect replay passes that did work.
	Flushes int64
}

// Stats reports the scheduler's execution shape. For sequential runs only
// Parallel/Groups are meaningful.
func (s *Scheduler) Stats() Stats {
	st := s.par.stats
	st.Parallel = s.parallel
	st.Groups = len(s.groups)
	st.Workers = s.par.effWorkers
	for _, g := range s.groups {
		st.Events += g.nexec
	}
	return st
}

// buildLookahead derives the group-pair lookahead matrix from the config:
// direct bounds first (the tightest of MinDelay and LinkMinDelay over every
// cross-group process pair), then the min-plus closure over walks so
// relayed chains are bounded too. Called once from setup in parallel mode.
func (s *Scheduler) buildLookahead() {
	ng := len(s.groups)
	inf := math.Inf(1)
	d := make([]float64, ng*ng)
	for i := range d {
		d[i] = inf
	}
	n := len(s.procs)
	for i := 0; i < n; i++ {
		gi := s.groupOf[i]
		for j := 0; j < n; j++ {
			gj := s.groupOf[j]
			if gi == gj {
				continue
			}
			b := s.cfg.MinDelay
			if s.cfg.LinkMinDelay != nil {
				if lb := s.cfg.LinkMinDelay(i, j); lb > b {
					b = lb
				}
			}
			if b < d[gi*ng+gj] {
				d[gi*ng+gj] = b
			}
		}
	}
	// Floyd–Warshall over walks. The diagonal starts at +Inf and relaxes
	// to the cheapest cycle through the group, never to zero — a group's
	// horizon must account for its own sends echoing back via peers.
	for k := 0; k < ng; k++ {
		for a := 0; a < ng; a++ {
			ak := d[a*ng+k]
			if math.IsInf(ak, 1) {
				continue
			}
			for b := 0; b < ng; b++ {
				if v := ak + d[k*ng+b]; v < d[a*ng+b] {
					d[a*ng+b] = v
				}
			}
		}
	}
	s.par.lat = d
	s.par.heads = make([]float64, ng)
	s.par.active = make([]*group, 0, ng)
	s.par.scratch = make([]*group, 0, ng)
}

// runParallel executes the world with the windowed scheduler. Called by Run
// after setup when cfg.SimWorkers > 1 and the group partition allows it.
func (s *Scheduler) runParallel() float64 {
	workers := s.cfg.SimWorkers
	if workers > len(s.groups) {
		workers = len(s.groups)
	}
	s.par.effWorkers = workers
	s.par.workCh = make(chan *group, len(s.groups))
	var pool sync.WaitGroup
	for i := 0; i < workers; i++ {
		pool.Add(1)
		go func() {
			defer pool.Done()
			for g := range s.par.workCh {
				s.runWindow(g)
				s.par.wg.Done()
			}
		}()
	}
	defer func() {
		close(s.par.workCh)
		pool.Wait()
	}()

	// Start-up window: kick every process at t=0. Kickoff sends happen at
	// clock 0, so a cross-group arrival into g is >= lat(h, g) >= H_g.
	ng := len(s.groups)
	for gi, g := range s.groups {
		h := math.Inf(1)
		for hi := 0; hi < ng; hi++ {
			if v := s.par.lat[hi*ng+gi]; v < h {
				h = v
			}
		}
		g.horizon = h
	}
	s.par.kick = true
	s.dispatch(s.groups)
	s.commit()
	s.par.kick = false

	for s.live.Load() > 0 {
		t0 := math.Inf(1)
		for _, g := range s.groups {
			if g.events.Len() > 0 && g.events[0].t < t0 {
				t0 = g.events[0].t
			}
		}
		if math.IsInf(t0, 1) {
			s.flushSideEffects(math.Inf(1))
			s.Deadlocked = s.anyWaiting()
			s.stopWorld()
			break
		}
		if s.cfg.MaxTime > 0 && t0 > s.cfg.MaxTime {
			s.flushSideEffects(math.Inf(1))
			s.TimedOut = true
			s.stopWorld()
			break
		}
		if s.cfg.Canceled != nil && s.cfg.Canceled() {
			s.flushSideEffects(math.Inf(1))
			s.Canceled = true
			s.stopWorld()
			break
		}
		active := s.planWindow()
		if len(active) == 0 {
			// Every group's earliest event sits at or past its own
			// horizon — only possible when a lookahead vanished in
			// rounding against a huge clock. Fall back to processing the
			// single globally smallest event, and count it.
			s.par.stats.DegenerateWindows++
			s.par.degenerate = true
			s.execSmallest()
			s.commit()
			s.par.degenerate = false
			continue
		}
		s.par.stats.Windows++
		if len(active) == 1 {
			s.par.stats.SingleGroupWindows++
		}
		s.dispatch(active)
		s.commit()
	}
	s.flushSideEffects(math.Inf(1))
	return s.endTime()
}

// planWindow computes every group's safe horizon from the current heads and
// returns the groups allowed to run (head strictly below their horizon and
// not beyond MaxTime). Heads beyond MaxTime do not constrain peers: those
// events will never be processed, so they can never cause a send. Each
// active group's finite width (horizon minus the window start) feeds the
// mean-window statistic.
func (s *Scheduler) planWindow() []*group {
	ng := len(s.groups)
	heads := s.par.heads
	for i, g := range s.groups {
		if g.events.Len() == 0 {
			heads[i] = math.Inf(1)
		} else {
			heads[i] = g.events[0].t
		}
	}
	t0 := math.Inf(1)
	for _, ht := range heads {
		if ht < t0 {
			t0 = ht
		}
	}
	active := s.par.active[:0]
	for gi, g := range s.groups {
		h := math.Inf(1)
		for hi := 0; hi < ng; hi++ {
			ht := heads[hi]
			if math.IsInf(ht, 1) || (s.cfg.MaxTime > 0 && ht > s.cfg.MaxTime) {
				continue
			}
			if v := ht + s.par.lat[hi*ng+gi]; v < h {
				h = v
			}
		}
		g.horizon = h
		if t := heads[gi]; t < h && !(s.cfg.MaxTime > 0 && t > s.cfg.MaxTime) {
			active = append(active, g)
			if !math.IsInf(h, 1) {
				s.par.stats.WidthSum += h - t0
				s.par.stats.WidthWindows++
			}
		}
	}
	s.par.active = active
	return active
}

// dispatch runs the given groups' windows, inline when only one group is
// active (the common case on sparse platforms — no handoff cost), else on
// the worker pool.
func (s *Scheduler) dispatch(groups []*group) {
	if len(groups) == 1 {
		s.runWindow(groups[0])
		return
	}
	s.par.wg.Add(len(groups))
	for _, g := range groups {
		s.par.workCh <- g
	}
	s.par.wg.Wait()
}

// runWindow drains g's events strictly below g's horizon (and not beyond
// MaxTime), or performs g's share of the start-up kick.
func (s *Scheduler) runWindow(g *group) {
	if s.par.kick {
		s.kickoff(g)
		return
	}
	n := int64(0)
	for g.events.Len() > 0 {
		t := g.events[0].t
		if t >= g.horizon || (s.cfg.MaxTime > 0 && t > s.cfg.MaxTime) {
			break
		}
		ev := g.events.popEv()
		s.exec(g, ev)
		n++
	}
	g.nexec += n
}

// execSmallest processes exactly one event — the globally smallest by key —
// single-threaded. Degenerate-horizon fallback only.
func (s *Scheduler) execSmallest() {
	var best *group
	for _, g := range s.groups {
		if g.events.Len() == 0 {
			continue
		}
		if best == nil || keyLess(g.events[0].key(), best.events[0].key()) {
			best = g
		}
	}
	if best == nil {
		return
	}
	ev := best.events.popEv()
	s.exec(best, ev)
	best.nexec++
}

// commit is the window barrier's sequential tail: route buffered
// cross-group events into their destination heaps (checking each against
// its destination's horizon), surface pending stop requests, and — only
// when enough records have accumulated — replay buffered side effects up to
// the safe frontier.
func (s *Scheduler) commit() {
	for _, g := range s.groups {
		for i := range g.outbox {
			ev := &g.outbox[i]
			dst := s.groups[s.groupOf[ev.proc]]
			if !s.par.degenerate && ev.t < dst.horizon {
				// The safe-horizon contract was violated: the delay model
				// returned less than the declared per-pair lower bound on
				// a cross-group link.
				panic(fmt.Sprintf(
					"vtime: cross-group event from %d to %d at t=%g inside the destination horizon %g; "+
						"Config.MinDelay/LinkMinDelay overstates the minimum cross-group delay",
					ev.src, ev.proc, ev.t, dst.horizon))
			}
			dst.events.pushEv(*ev)
			*ev = event{} // drop payload references held by the buffer
		}
		g.outbox = g.outbox[:0]
	}
	if s.par.pendingStop.Load() {
		s.stopped = true
	}
	buffered := 0
	for _, g := range s.groups {
		buffered += len(g.obsBuf) - g.obsHead + len(g.traceBuf) - g.traceHead
	}
	if buffered >= flushThreshold {
		s.flushSideEffects(s.frontier())
	}
}

// frontier returns the earliest pending event time anywhere — every event
// processed in the future has at least this time, so buffered side-effect
// records strictly below it can be replayed without reordering risk.
func (s *Scheduler) frontier() float64 {
	f := math.Inf(1)
	for _, g := range s.groups {
		if g.events.Len() > 0 && g.events[0].t < f {
			f = g.events[0].t
		}
	}
	return f
}

// flushSideEffects replays buffered Observer callbacks and trace entries
// with keys strictly below limit, in exact sequential order. Called with
// limit = +Inf before stopWorld and at the end of the run (stopWorld's own
// side effects go direct and must come after everything buffered).
func (s *Scheduler) flushSideEffects(limit float64) {
	did := false
	if s.cfg.Observer != nil && s.mergeObservations(limit) {
		did = true
	}
	if s.cfg.Trace != nil && s.mergeTraces(limit) {
		did = true
	}
	if did {
		s.par.stats.Flushes++
	}
}

// mergeObservations replays buffered Observer callbacks across groups by
// smallest head key — the sequential delivery order — stopping at limit.
// Each group's buffer is key-sorted (groups process their own events in key
// order, and keys never tie across groups: the source process belongs to
// exactly one group), so a k-way head scan suffices.
func (s *Scheduler) mergeObservations(limit float64) bool {
	obs := s.cfg.Observer
	live := s.par.scratch[:0]
	for _, g := range s.groups {
		if g.obsHead < len(g.obsBuf) {
			live = append(live, g)
		}
	}
	merged := false
	if len(live) == 1 {
		// Single-source fast path: already in order, no key comparisons.
		g := live[0]
		for g.obsHead < len(g.obsBuf) && g.obsBuf[g.obsHead].key.t < limit {
			r := &g.obsBuf[g.obsHead]
			g.obsHead++
			obs.MsgDelivered(r.msg, r.depth)
			merged = true
		}
	} else {
		for len(live) > 0 {
			best := 0
			for i := 1; i < len(live); i++ {
				if keyLess(live[i].obsBuf[live[i].obsHead].key, live[best].obsBuf[live[best].obsHead].key) {
					best = i
				}
			}
			g := live[best]
			r := &g.obsBuf[g.obsHead]
			if r.key.t >= limit {
				break // the globally smallest record must wait
			}
			g.obsHead++
			obs.MsgDelivered(r.msg, r.depth)
			merged = true
			if g.obsHead == len(g.obsBuf) {
				live[best] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
	}
	s.par.scratch = live[:0]
	for _, g := range s.groups {
		compactObs(g)
	}
	return merged
}

// mergeTraces replays buffered Env.Trace calls across groups by smallest
// slice key, preserving each group's emission order within a slice — the
// sequential trace order — stopping at limit.
func (s *Scheduler) mergeTraces(limit float64) bool {
	log := s.cfg.Trace
	live := s.par.scratch[:0]
	for _, g := range s.groups {
		if g.traceHead < len(g.traceBuf) {
			live = append(live, g)
		}
	}
	merged := false
	if len(live) == 1 {
		g := live[0]
		for g.traceHead < len(g.traceBuf) && g.traceBuf[g.traceHead].key.t < limit {
			log.Add(g.traceBuf[g.traceHead].ev)
			g.traceHead++
			merged = true
		}
	} else {
		for len(live) > 0 {
			best := 0
			for i := 1; i < len(live); i++ {
				if keyLess(live[i].traceBuf[live[i].traceHead].key, live[best].traceBuf[live[best].traceHead].key) {
					best = i
				}
			}
			g := live[best]
			if g.traceBuf[g.traceHead].key.t >= limit {
				break
			}
			log.Add(g.traceBuf[g.traceHead].ev)
			g.traceHead++
			merged = true
			if g.traceHead == len(g.traceBuf) {
				live[best] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
	}
	s.par.scratch = live[:0]
	for _, g := range s.groups {
		compactTraces(g)
	}
	return merged
}

// compactObs drops the replayed prefix of g's observation buffer, moving
// the unreplayed remainder (records at or past the flush frontier) to the
// front so the backing array is reused instead of regrown.
func compactObs(g *group) {
	if g.obsHead == 0 {
		return
	}
	n := copy(g.obsBuf, g.obsBuf[g.obsHead:])
	tail := g.obsBuf[n:]
	for i := range tail {
		tail[i] = obsRecord{} // drop payload references
	}
	g.obsBuf = g.obsBuf[:n]
	g.obsHead = 0
}

// compactTraces is compactObs for the trace buffer.
func compactTraces(g *group) {
	if g.traceHead == 0 {
		return
	}
	n := copy(g.traceBuf, g.traceBuf[g.traceHead:])
	tail := g.traceBuf[n:]
	for i := range tail {
		tail[i] = traceRecord{}
	}
	g.traceBuf = g.traceBuf[:n]
	g.traceHead = 0
}
