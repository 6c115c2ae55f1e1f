package obs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aiac/internal/engine"
	"aiac/internal/metrics"
	"aiac/internal/report"
	"aiac/internal/trace"
)

// The scheduler multiplexes submitted runs over its own bounded pool of
// worker goroutines. Queuing is fair per tenant: each tenant has a
// FIFO queue and a round-robin cursor walks the tenants, so a tenant
// dumping 10k runs cannot starve one submitting a single solve. Two quota
// knobs bound a tenant's footprint: MaxQueuedPerTenant rejects submissions
// at the door (HTTP 429), MaxRunningPerTenant caps in-flight runs (the
// cursor skips saturated tenants; their queue drains as their runs finish).

// SchedulerConfig tunes the run scheduler.
type SchedulerConfig struct {
	// Workers is the solver pool size (<= 0: GOMAXPROCS).
	Workers int
	// MaxQueuedPerTenant rejects a submission when the tenant already has
	// this many queued runs (<= 0: unlimited).
	MaxQueuedPerTenant int
	// MaxRunningPerTenant caps a tenant's concurrently running solves
	// (<= 0: unlimited).
	MaxRunningPerTenant int
}

// ErrQueueFull is returned by Submit when the tenant's queue quota is hit.
type ErrQueueFull struct{ Tenant string }

func (e ErrQueueFull) Error() string {
	return fmt.Sprintf("obs: tenant %q queue is full", e.Tenant)
}

type job struct {
	id        string
	tenant    string
	cfg       engine.Config // from RunSpec.BuildConfig: sink and trace log attached
	cancel    atomic.Bool
	stream    *liveStream
	submitted time.Time
}

// Scheduler runs submitted specs on a worker pool, persisting lifecycle
// and artifacts through a Registry.
type Scheduler struct {
	reg *Registry
	cfg SchedulerConfig

	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string][]*job // per-tenant FIFO
	ring    []string          // round-robin tenant order (insertion order)
	cursor  int
	queued  map[string]int // per-tenant queued count
	running map[string]int // per-tenant running count
	jobs    map[string]*job
	closed  bool

	// Service-level telemetry, scraped by the control plane's /metrics
	// endpoint. sheds counts 429-style quota rejections; submitToStart is
	// the queue-wait latency (Submit accept to solver start) in seconds.
	sheds         atomic.Uint64
	startedTotal  atomic.Uint64
	submitToStart metrics.Histogram

	workers sync.WaitGroup
}

// NewScheduler starts the worker pool.
func NewScheduler(reg *Registry, cfg SchedulerConfig) *Scheduler {
	s := &Scheduler{
		reg:     reg,
		cfg:     cfg,
		queues:  map[string][]*job{},
		queued:  map[string]int{},
		running: map[string]int{},
		jobs:    map[string]*job{},
	}
	s.cond = sync.NewCond(&s.mu)
	n := cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s.workers.Add(n)
	for i := 0; i < n; i++ {
		go s.work()
	}
	return s
}

// work is one pool worker: it runs the jobs next hands out until the
// scheduler closes.
func (s *Scheduler) work() {
	defer s.workers.Done()
	for j := s.next(); j != nil; j = s.next() {
		func() {
			// Last resort. execute turns a solver panic into a failed run
			// itself; whatever else panics must not take the pool down.
			defer func() { recover() }()
			s.execute(j)
		}()
	}
}

// Close stops the pool after the running jobs finish; queued jobs stay
// queued on disk (a restart marks them lost). It does not cancel running
// solves — the service cancels them first when shutting down hard.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.workers.Wait()
}

// Submit validates the spec, persists the queued record and enqueues the
// run. It returns the new run ID.
func (s *Scheduler) Submit(spec RunSpec) (string, error) {
	spec = spec.WithDefaults()
	cfg, err := spec.BuildConfig()
	if err != nil {
		return "", err
	}
	if strings.EqualFold(spec.Backend, "dist") {
		return "", fmt.Errorf("backend %q spawns worker processes, which a service run cannot: it is aiacrun-only", spec.Backend)
	}
	j := &job{
		tenant: spec.Tenant,
		cfg:    cfg,
		stream: newLiveStream(),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", fmt.Errorf("obs: scheduler is shut down")
	}
	if s.cfg.MaxQueuedPerTenant > 0 && s.queued[spec.Tenant] >= s.cfg.MaxQueuedPerTenant {
		s.mu.Unlock()
		s.sheds.Add(1)
		return "", ErrQueueFull{Tenant: spec.Tenant}
	}
	// Reserve the quota slot and allocate the ID inside the lock (IDs are
	// monotonic, so submission order and ID order agree even under
	// concurrent submitters), but enqueue only after the queued record is
	// durable — a worker must never pick up a run the registry cannot
	// report.
	j.id = NewID(time.Now())
	j.submitted = time.Now()
	s.queued[spec.Tenant]++
	s.jobs[j.id] = j
	s.mu.Unlock()

	rec := &RunRecord{
		ID: j.id, Tenant: spec.Tenant, State: StateQueued,
		SubmittedAt: time.Now().UTC().Format(time.RFC3339Nano),
		Spec:        spec,
	}
	if err := s.reg.Put(rec); err != nil {
		s.mu.Lock()
		s.queued[spec.Tenant]--
		delete(s.jobs, j.id)
		s.mu.Unlock()
		j.stream.close()
		return "", err
	}

	s.mu.Lock()
	if _, ok := s.queues[spec.Tenant]; !ok {
		s.ring = append(s.ring, spec.Tenant)
	}
	s.queues[spec.Tenant] = append(s.queues[spec.Tenant], j)
	s.cond.Signal()
	s.mu.Unlock()
	return j.id, nil
}

// remove drops a queued job (registry record untouched). Returns the job
// if it was still queued.
func (s *Scheduler) remove(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil
	}
	q := s.queues[j.tenant]
	for i, qj := range q {
		if qj == j {
			s.queues[j.tenant] = append(q[:i], q[i+1:]...)
			s.queued[j.tenant]--
			delete(s.jobs, id)
			return j
		}
	}
	return nil // already running
}

// Cancel requests cancellation of a run. A queued run is dequeued and
// marked canceled immediately; a running run gets its cancel flag raised
// and reaches a terminal state when the solver notices (between events —
// promptly). Returns false if the run is unknown or already terminal.
func (s *Scheduler) Cancel(id string) bool {
	if j := s.remove(id); j != nil {
		if rec, ok := s.reg.Get(id); ok {
			rec.State = StateCanceled
			rec.FinishedAt = time.Now().UTC().Format(time.RFC3339Nano)
			s.reg.Put(&rec)
		}
		j.stream.close()
		return true
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	j.cancel.Store(true)
	return true
}

// Stream returns the live frame stream of a queued or running run, nil if
// the run is unknown or already finished (finished runs replay from disk).
func (s *Scheduler) Stream(id string) *liveStream {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j.stream
	}
	return nil
}

// QueueDepths snapshots per-tenant queued counts (for /readyz detail and
// tests).
func (s *Scheduler) QueueDepths() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.queued))
	for t, n := range s.queued {
		if n > 0 {
			out[t] = n
		}
	}
	return out
}

// RunningCounts snapshots per-tenant running counts.
func (s *Scheduler) RunningCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.running))
	for t, n := range s.running {
		if n > 0 {
			out[t] = n
		}
	}
	return out
}

// Sheds returns the number of submissions rejected at the queue quota
// (surfaced to clients as HTTP 429).
func (s *Scheduler) Sheds() uint64 { return s.sheds.Load() }

// WritePrometheus writes the scheduler's service-level metrics in the
// Prometheus text exposition format: per-tenant queue depth and running
// count, total quota sheds, started-run count and the submit-to-start
// latency histogram. Tenant label order is sorted, so scrapes are
// deterministic in the scheduler state.
func (s *Scheduler) WritePrometheus(w io.Writer) error {
	queued := s.QueueDepths()
	running := s.RunningCounts()
	pw := metrics.NewPromWriter(w)

	tenants := func(m map[string]int) []string {
		ts := make([]string, 0, len(m))
		for t := range m {
			ts = append(ts, t)
		}
		sort.Strings(ts)
		return ts
	}
	pw.Head("aiac_sched_queue_depth", "gauge", "Queued runs per tenant.")
	for _, t := range tenants(queued) {
		pw.Val("aiac_sched_queue_depth", metrics.PromLabel("tenant", t), float64(queued[t]))
	}
	pw.Head("aiac_sched_running", "gauge", "Running solves per tenant.")
	for _, t := range tenants(running) {
		pw.Val("aiac_sched_running", metrics.PromLabel("tenant", t), float64(running[t]))
	}
	pw.Head("aiac_sched_sheds_total", "counter", "Submissions rejected at the per-tenant queue quota (HTTP 429).")
	pw.Val("aiac_sched_sheds_total", "", float64(s.sheds.Load()))
	pw.Head("aiac_sched_started_total", "counter", "Runs handed to the solver pool.")
	pw.Val("aiac_sched_started_total", "", float64(s.startedTotal.Load()))
	pw.Head("aiac_sched_submit_to_start_seconds", "histogram", "Queue wait from accepted submission to solver start.")
	pw.Hist("aiac_sched_submit_to_start_seconds", "", s.submitToStart.Snapshot())
	return pw.Err()
}

// next feeds the workers: it blocks until a job is runnable under the
// fairness policy and hands it out, or returns nil once the scheduler is
// closed.
func (s *Scheduler) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		if j := s.dequeueLocked(); j != nil {
			s.running[j.tenant]++
			return j
		}
		s.cond.Wait()
	}
	return nil
}

// dequeueLocked walks the tenant ring from the cursor and pops the head of
// the first non-empty queue whose tenant has running capacity. Advancing
// the cursor past the chosen tenant gives round-robin fairness.
func (s *Scheduler) dequeueLocked() *job {
	n := len(s.ring)
	for k := 0; k < n; k++ {
		t := s.ring[(s.cursor+k)%n]
		if len(s.queues[t]) == 0 {
			continue
		}
		if s.cfg.MaxRunningPerTenant > 0 && s.running[t] >= s.cfg.MaxRunningPerTenant {
			continue
		}
		j := s.queues[t][0]
		s.queues[t] = s.queues[t][1:]
		s.queued[t]--
		s.cursor = (s.cursor + k + 1) % n
		return j
	}
	return nil
}

// execute runs one job to a terminal state: record running, solve with the
// live stream attached, write artifacts, record the outcome, close the
// stream, release the tenant slot.
func (s *Scheduler) execute(j *job) {
	defer func() {
		s.mu.Lock()
		s.running[j.tenant]--
		delete(s.jobs, j.id)
		s.cond.Broadcast() // a tenant slot freed: retry skipped queues
		s.mu.Unlock()
	}()

	s.startedTotal.Add(1)
	s.submitToStart.Observe(time.Since(j.submitted).Seconds())

	rec, ok := s.reg.Get(j.id)
	if !ok {
		j.stream.close()
		return
	}
	rec.State = StateRunning
	rec.StartedAt = time.Now().UTC().Format(time.RFC3339Nano)
	s.reg.Put(&rec)

	sink := j.cfg.Metrics
	sink.Listener = &streamListener{sink: sink, stream: j.stream}
	j.cfg.Cancel = j.cancel.Load

	res, err := func() (res *engine.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("solver panic: %v", r)
			}
		}()
		return engine.Run(j.cfg)
	}()

	rec.FinishedAt = time.Now().UTC().Format(time.RFC3339Nano)
	switch {
	case err != nil:
		rec.State = StateFailed
		rec.Error = err.Error()
	case res.Canceled:
		rec.State = StateCanceled
	default:
		rec.State = StateDone
	}
	if err == nil {
		run := sink.Snapshot()
		rec.Outcome = run.Manifest.Outcome
		if werr := writeArtifacts(s.reg.Dir(j.id), run, j.cfg.Trace); werr != nil {
			rec.State = StateFailed
			rec.Error = werr.Error()
		}
		rec.Artifacts = ScanArtifacts(s.reg.Dir(j.id))
		// Seal the live stream with the canonical tail so followers see
		// the same closing frames a replay would. The manifest is re-sent
		// because the opening copy (captured at Start) predates the sealed
		// outcome; accumulators keep the last manifest seen.
		j.stream.append(report.ManifestFrame(run.Manifest))
		j.stream.append(report.RuntimeFrame(run))
		j.stream.append(report.PhaseFrame(metrics.PhaseDone))
	}
	s.reg.Put(&rec)
	j.stream.close()
}

// writeArtifacts exports the run's telemetry, rendered dashboard and (when
// traced) execution trace into its registry directory.
func writeArtifacts(dir string, run *metrics.Run, tlog *trace.Log) error {
	if err := run.WriteFile(filepath.Join(dir, "metrics.jsonl")); err != nil {
		return err
	}
	if tlog != nil {
		if err := tlog.WriteCSVFile(filepath.Join(dir, "trace.csv")); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, "report.txt"),
		[]byte(report.Render(run, report.Options{})), 0o644)
}

// streamListener adapts metrics.Sink's live hooks to SSE frames. The first
// frame (on the run's Start) is the manifest echo, so a follower attached
// before the run starts sees the same opening a replay produces.
type streamListener struct {
	sink   *metrics.Sink
	stream *liveStream
}

func (l *streamListener) LivePhase(phase string) {
	if phase == metrics.PhaseRunning {
		l.stream.append(report.ManifestFrame(l.sink.ManifestSnapshot()))
	}
	l.stream.append(report.PhaseFrame(phase))
}

func (l *streamListener) LiveSample(node int, sm metrics.NodeSample) {
	l.stream.append(report.SampleFrame(node, sm))
}

func (l *streamListener) LiveEvent(ev metrics.Event) {
	l.stream.append(report.EventFrame(ev))
}

// liveStream is a grow-only frame buffer with change notification: SSE
// handlers replay frames[i:] and wait for more until closed. Appends come
// from solver goroutines (concurrent under rtime), reads from HTTP handlers.
type liveStream struct {
	mu     sync.Mutex
	frames []report.Frame
	closed bool
	subs   map[chan struct{}]struct{}
}

func newLiveStream() *liveStream {
	return &liveStream{subs: map[chan struct{}]struct{}{}}
}

func (ls *liveStream) append(f report.Frame) {
	ls.mu.Lock()
	if ls.closed {
		ls.mu.Unlock()
		return
	}
	ls.frames = append(ls.frames, f)
	ls.notifyLocked()
	ls.mu.Unlock()
}

func (ls *liveStream) close() {
	ls.mu.Lock()
	ls.closed = true
	ls.notifyLocked()
	ls.mu.Unlock()
}

func (ls *liveStream) notifyLocked() {
	for ch := range ls.subs {
		select {
		case ch <- struct{}{}:
		default: // already pending
		}
	}
}

// subscribe registers a wakeup channel; call unsubscribe when done.
func (ls *liveStream) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	ls.mu.Lock()
	ls.subs[ch] = struct{}{}
	ls.mu.Unlock()
	return ch
}

func (ls *liveStream) unsubscribe(ch chan struct{}) {
	ls.mu.Lock()
	delete(ls.subs, ch)
	ls.mu.Unlock()
}

// snapshot returns frames[from:] and whether the stream is closed.
func (ls *liveStream) snapshot(from int) ([]report.Frame, bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if from >= len(ls.frames) {
		return nil, ls.closed
	}
	return ls.frames[from:len(ls.frames):len(ls.frames)], ls.closed
}
