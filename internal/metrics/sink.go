package metrics

import (
	"sort"
	"sync"
	"sync/atomic"

	"aiac/internal/runenv"
)

// NodeSample is one periodic observation of one node. Times are virtual
// seconds; cumulative fields count since the start of the run.
type NodeSample struct {
	T        float64 `json:"t"`
	Iter     int     `json:"iter"`
	Residual float64 `json:"residual"`
	// Count is the number of components the node owns.
	Count int `json:"count"`
	// Queue is the node's mailbox depth at sample time.
	Queue int `json:"queue"`
	// HaloAge is the age (seconds) of the oldest halo data currently held
	// from an existing neighbor: how stale the node's inputs are.
	HaloAge float64 `json:"halo_age"`
	// IdleFrac is the fraction of the window since the previous accepted
	// sample not spent in compute sweeps (waits, drains, handshakes).
	IdleFrac float64 `json:"idle_frac"`
	// LBPending counts directions (0-2) with an unresolved outbound
	// transfer — the LB handshake state.
	LBPending int `json:"lb_pending"`
	// MsgsSent and MsgsRecv are cumulative data-plane message counts.
	MsgsSent uint64 `json:"msgs_sent"`
	MsgsRecv uint64 `json:"msgs_recv"`
	// Faults is the cumulative count of injected faults on this node's
	// inbound links whose injection time is <= T. The sink fills it at
	// FinishRun from the recorded attribution times (counting by virtual
	// time rather than by live counter reads keeps the value independent
	// of how the runtime interleaved senders and this node's sampling).
	Faults uint64 `json:"faults"`
	// Work is the cumulative work in abstract units; Busy the cumulative
	// compute time in seconds.
	Work float64 `json:"work"`
	Busy float64 `json:"busy"`
}

// Event is one timestamped occurrence on the convergence/control timeline.
// Node is -1 for detector-side events.
type Event struct {
	T      float64 `json:"t"`
	Node   int     `json:"node"`
	Name   string  `json:"name"`
	Detail string  `json:"detail,omitempty"`
}

// nodeSeries is one node's bounded snapshot buffer. Only that node's
// process writes it, so no locking is needed (matching engine.History).
type nodeSeries struct {
	samples []NodeSample
	// minGap is the node's effective sampling interval; it doubles every
	// time the buffer thins itself, bounding memory while keeping
	// full-horizon coverage.
	minGap float64
	lastT  float64
	have   bool
}

// Default bounds, overridable on the Sink before the run starts.
const (
	DefaultCap      = 2048
	DefaultEventCap = 4096
)

// eventStream is one emitter's bounded slice of the convergence/control
// timeline: one per node, plus one for the detector (node -1). Splitting
// the log per emitter makes the stored content independent of how emitters
// interleave: each stream is appended by a single process in its own local
// order. Events() merges the streams into the canonical (T, node) order.
type eventStream struct {
	events  []Event
	dropped uint64
}

// Sink collects one run's telemetry. Configure the public knobs before the
// run; engine.Run calls Start, the instrumentation hooks feed it during the
// run, and FinishRun seals the manifest. A Sink is single-use.
//
// Concurrency: per-node samples are written only by the owning process;
// counters, gauges and the histogram are atomic; the event streams are
// mutex-guarded and single-writer. This makes every hook safe under both
// runtimes.
type Sink struct {
	// Period is the minimum virtual-time spacing (seconds) between two
	// accepted samples of the same node; 0 samples every iteration (until
	// the buffer starts thinning itself).
	Period float64
	// Cap bounds each node's sample buffer (default DefaultCap): when a
	// buffer fills, every second sample is dropped and the node's sampling
	// interval doubles, so arbitrarily long runs keep whole-run coverage
	// in bounded memory.
	Cap int
	// EventCap bounds each emitter's event stream (default
	// DefaultEventCap); later events from that emitter are counted but not
	// stored.
	EventCap int

	// Manifest is the run's configuration echo and outcome. Callers may
	// pre-fill naming fields (problem, cluster, host info); engine.Run
	// fills the rest and the outcome.
	Manifest Manifest

	// Listener, when non-nil, receives every accepted sample, every stored
	// timeline event and the phase transitions as the run produces them —
	// the feed behind live SSE dashboards. Callbacks are invoked from the
	// runtime's own processes (concurrently under rtime), must be fast, and
	// must not call back into the sink. A nil listener costs one pointer
	// check per hook. Set it before Start.
	Listener Listener

	nodes  []nodeSeries
	faults []Counter
	// faultT[node] holds the injection times behind the faults counters;
	// FinishRun resolves them into the samples' Faults fields.
	fmu    sync.Mutex
	faultT [][]float64

	// evs[node+1] is the emitter's stream (index 0 = detector, node -1).
	mu  sync.Mutex
	evs []eventStream

	// Delivered and Control count messages entering mailboxes (data-plane
	// vs convergence-detection kinds); QueueMax tracks the deepest mailbox
	// observed; Latency is the send-to-delivery latency distribution.
	Delivered Counter
	Control   Counter
	QueueMax  Gauge
	Latency   Histogram

	// Live state for the HTTP observability plane (internal/obs): refreshed
	// on every Sample offer, before the accept filter, so a scrape sees the
	// current values even between accepted samples. Plain atomics — the
	// deterministic exports never read them.
	phase atomic.Int32 // 0 idle, 1 running, 2 done
	live  []liveNode
}

// liveNode is one node's last-offered observation, readable concurrently by
// HTTP scrape handlers while the node's process keeps writing it.
type liveNode struct {
	residual Gauge
	work     Gauge
	iter     atomic.Int64
	count    atomic.Int64
	queue    atomic.Int64
}

// Run phases, as reported by Phase.
const (
	PhaseIdle    = "idle"
	PhaseRunning = "running"
	PhaseDone    = "done"
)

// Listener receives a run's telemetry live, as it is collected; see
// Sink.Listener. Implementations must be safe for concurrent use.
type Listener interface {
	// LiveSample is called for every sample the sink accepts into a node's
	// series (after thinning/period filtering, IdleFrac resolved).
	LiveSample(node int, sm NodeSample)
	// LiveEvent is called for every stored timeline event.
	LiveEvent(ev Event)
	// LivePhase is called on phase transitions (PhaseRunning at Start,
	// PhaseDone at FinishRun).
	LivePhase(phase string)
}

// Phase reports where the run is: "idle" before Start, "running" until
// FinishRun, "done" after. Safe to call concurrently with the run.
func (s *Sink) Phase() string {
	if s == nil {
		return PhaseIdle
	}
	switch s.phase.Load() {
	case 1:
		return PhaseRunning
	case 2:
		return PhaseDone
	default:
		return PhaseIdle
	}
}

// LiveResidual returns the current maximum residual across the nodes' most
// recently offered samples. Safe to call concurrently with the run.
func (s *Sink) LiveResidual() float64 {
	if s == nil {
		return 0
	}
	max := 0.0
	for i := range s.live {
		if r := s.live[i].residual.Value(); r > max {
			max = r
		}
	}
	return max
}

// Start sizes the per-node state for p nodes. engine.Run calls it once
// before the world starts.
func (s *Sink) Start(p int) {
	if s.Cap <= 0 {
		s.Cap = DefaultCap
	}
	if s.EventCap <= 0 {
		s.EventCap = DefaultEventCap
	}
	s.nodes = make([]nodeSeries, p)
	s.faults = make([]Counter, p)
	s.faultT = make([][]float64, p)
	s.live = make([]liveNode, p)
	s.phase.Store(1)
	if s.Listener != nil {
		s.Listener.LivePhase(PhaseRunning)
	}
	s.mu.Lock()
	if len(s.evs) < p+1 {
		s.evs = make([]eventStream, p+1)
	}
	s.mu.Unlock()
}

// Sample offers one observation for a node; the sink accepts it when the
// node's sampling interval has elapsed (and always accepts the first).
// sm.IdleFrac is computed here from the Busy/T deltas between accepted
// samples, so callers pass cumulative Busy and leave IdleFrac zero.
// Must be called only by the node's own process.
func (s *Sink) Sample(rank int, sm NodeSample) {
	if s == nil || rank < 0 || rank >= len(s.nodes) {
		return
	}
	lv := &s.live[rank]
	lv.residual.Set(sm.Residual)
	lv.work.Set(sm.Work)
	lv.iter.Store(int64(sm.Iter))
	lv.count.Store(int64(sm.Count))
	lv.queue.Store(int64(sm.Queue))
	ns := &s.nodes[rank]
	gap := s.Period
	if ns.minGap > gap {
		gap = ns.minGap
	}
	if ns.have && sm.T-ns.lastT < gap {
		return
	}
	if ns.have {
		if dt := sm.T - ns.lastT; dt > 0 {
			prev := ns.samples[len(ns.samples)-1]
			idle := 1 - (sm.Busy-prev.Busy)/dt
			if idle < 0 {
				idle = 0
			}
			if idle > 1 {
				idle = 1
			}
			sm.IdleFrac = idle
		}
	}
	ns.lastT = sm.T
	ns.have = true
	ns.samples = append(ns.samples, sm)
	if len(ns.samples) >= s.Cap {
		ns.thin()
	}
	if s.Listener != nil {
		s.Listener.LiveSample(rank, sm)
	}
}

// thin halves the buffer (keeping every second sample, newest last) and
// doubles the node's sampling interval.
func (ns *nodeSeries) thin() {
	keep := 0
	for i := 0; i < len(ns.samples); i += 2 {
		ns.samples[keep] = ns.samples[i]
		keep++
	}
	if ns.minGap == 0 {
		// derive the current spacing so the doubled interval is meaningful
		// even when Period is 0 (sample-every-iteration mode)
		span := ns.samples[keep-1].T - ns.samples[0].T
		if n := keep - 1; n > 0 {
			ns.minGap = span / float64(n)
		}
	}
	ns.minGap *= 2
	ns.samples = ns.samples[:keep]
}

// Event appends to the convergence/control timeline (node -1 = detector).
// Each node's events must be emitted by that node's own process so stream
// order is the emitter's local order.
func (s *Sink) Event(t float64, node int, name, detail string) {
	if s == nil {
		return
	}
	idx := node + 1
	if idx < 0 {
		idx = 0
	}
	ecap := s.EventCap
	if ecap <= 0 {
		ecap = DefaultEventCap
	}
	s.mu.Lock()
	if idx >= len(s.evs) {
		grown := make([]eventStream, idx+1)
		copy(grown, s.evs)
		s.evs = grown
	}
	st := &s.evs[idx]
	stored := len(st.events) < ecap
	if !stored {
		st.dropped++
	} else {
		st.events = append(st.events, Event{T: t, Node: node, Name: name, Detail: detail})
	}
	s.mu.Unlock()
	if stored && s.Listener != nil {
		s.Listener.LiveEvent(Event{T: t, Node: node, Name: name, Detail: detail})
	}
}

// CountFault records one injected fault on the given destination node's
// inbound traffic at injection time t. Several senders may target one node
// concurrently, so the time list is mutex-guarded; FinishRun sorts it, which
// makes the per-sample resolution independent of arrival interleaving.
func (s *Sink) CountFault(node int, t float64) {
	if s == nil || node < 0 || node >= len(s.faults) {
		return
	}
	s.faults[node].Inc()
	s.fmu.Lock()
	s.faultT[node] = append(s.faultT[node], t)
	s.fmu.Unlock()
}

// FaultCount returns the cumulative inbound-fault count of a node.
func (s *Sink) FaultCount(node int) uint64 {
	if s == nil || node < 0 || node >= len(s.faults) {
		return 0
	}
	return s.faults[node].Value()
}

// MsgDelivered implements runenv.Observer: it classifies the message
// (data plane vs detection control), tracks queue depth and the
// send-to-delivery latency distribution.
func (s *Sink) MsgDelivered(m runenv.Msg, depth int) {
	if s == nil {
		return
	}
	if m.Kind >= runenv.ControlKindBase {
		s.Control.Inc()
	} else {
		s.Delivered.Inc()
	}
	s.QueueMax.Max(float64(depth))
	s.Latency.Observe(m.RecvT - m.SendT)
}

// FinishRun seals the run's outcome into the manifest and resolves every
// stored sample's Faults field: the count of this node's inbound faults
// injected at or before the sample's time.
func (s *Sink) FinishRun(out Outcome) {
	if s == nil {
		return
	}
	s.phase.Store(2)
	s.fmu.Lock()
	defer s.fmu.Unlock()
	s.Manifest.Outcome = &out
	if s.Listener != nil {
		s.Listener.LivePhase(PhaseDone)
	}
	for r := range s.nodes {
		times := s.faultT[r]
		sort.Float64s(times)
		row := s.nodes[r].samples
		idx := 0
		for i := range row {
			for idx < len(times) && times[idx] <= row[i].T {
				idx++
			}
			row[i].Faults = uint64(idx)
		}
	}
}

// ManifestSnapshot returns a copy of the run manifest that is safe to read
// while the run is finishing: the outcome seal in FinishRun synchronizes
// on the same lock. Live HTTP handlers (obs /manifest) use this instead of
// reading Manifest directly.
func (s *Sink) ManifestSnapshot() Manifest {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	return s.Manifest
}

// Events returns the stored timeline in canonical order — ascending time,
// ties broken by emitter (detector first, then node rank), each emitter's
// events kept in emission order — plus the total overflow count. The
// canonical order depends only on each stream's content, never on how the
// emitters' processes interleaved.
func (s *Sink) Events() ([]Event, uint64) {
	if s == nil {
		return nil, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	total, dropped := 0, uint64(0)
	for i := range s.evs {
		total += len(s.evs[i].events)
		dropped += s.evs[i].dropped
	}
	if total == 0 {
		return nil, dropped
	}
	out := make([]Event, 0, total)
	heads := make([]int, len(s.evs))
	for len(out) < total {
		best := -1
		for i := range s.evs {
			if heads[i] >= len(s.evs[i].events) {
				continue
			}
			if best < 0 || s.evs[i].events[heads[i]].T < s.evs[best].events[heads[best]].T {
				best = i
			}
		}
		out = append(out, s.evs[best].events[heads[best]])
		heads[best]++
	}
	return out, dropped
}

// Samples returns one node's stored samples (the live slice; callers must
// not mutate it and must not call this during the run).
func (s *Sink) Samples(rank int) []NodeSample {
	if s == nil || rank < 0 || rank >= len(s.nodes) {
		return nil
	}
	return s.nodes[rank].samples
}

// Nodes returns how many per-node series the sink holds.
func (s *Sink) Nodes() int {
	if s == nil {
		return 0
	}
	return len(s.nodes)
}
