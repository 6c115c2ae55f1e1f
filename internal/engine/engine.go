// Package engine implements the parallel iterative solvers of the paper:
// the three classes of §1.2 — SISC (synchronous iterations, synchronous
// communications), SIAC (synchronous iterations, asynchronous
// communications) and AIAC (asynchronous iterations, asynchronous
// communications, in both the general Figure-3 form and the
// mutual-exclusion Figure-4 variant) — plus the decentralized dynamic load
// balancing of Algorithms 4-7 coupled to the AIAC solver.
//
// One grid node is one runenv process; a convergence detector (or, for
// SISC, a barrier coordinator) runs as one extra process. Nodes own a
// contiguous range of problem components organized in a logical linear
// chain, exchange halo trajectories with their chain neighbors, and — when
// balancing is enabled — ship components to their lightest-loaded neighbor
// per the Bertsekas–Tsitsiklis policy with the residual load estimator.
//
// The engine runs unchanged on the deterministic virtual-time runtime
// (experiments, benchmarks) and the real goroutine runtime (live runs).
package engine

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"aiac/internal/detect"
	"aiac/internal/fault"
	"aiac/internal/grid"
	"aiac/internal/iterative"
	"aiac/internal/loadbalance"
	"aiac/internal/metrics"
	"aiac/internal/runenv"
	"aiac/internal/trace"
	"aiac/internal/vtime"
)

// Mode selects the parallel iterative algorithm class.
type Mode int

const (
	// SISC: synchronous iterations, synchronous communications — halo
	// exchange plus a global barrier at every iteration (Figure 1).
	SISC Mode = iota
	// SIAC: synchronous iterations, asynchronous communications — the
	// first halo is sent as soon as it is updated, the second at the end
	// of the iteration; nodes still wait for both neighbors' data from
	// the previous iteration (Figure 2).
	SIAC
	// AIACGeneral: asynchronous iterations and communications, sending
	// both halves every iteration without send suppression (Figure 3).
	AIACGeneral
	// AIAC: the paper's variant — asynchronous iterations with a mutual
	// exclusion on sends: a new send in a direction is skipped while the
	// previous one is still in flight (Figure 4, Algorithm 1); this is
	// the variant the load balancing couples to (Algorithm 4).
	AIAC
)

// String returns the mode's name as used in the paper.
func (m Mode) String() string {
	switch m {
	case SISC:
		return "SISC"
	case SIAC:
		return "SIAC"
	case AIACGeneral:
		return "AIAC-general"
	case AIAC:
		return "AIAC"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Synchronous reports whether the mode performs synchronous iterations.
func (m Mode) Synchronous() bool { return m == SISC || m == SIAC }

// Detection selects the global convergence-detection protocol.
type Detection int

const (
	// DetectCentral uses the asynchronous two-phase verification detector
	// (one extra coordinator process, co-located with node 0).
	DetectCentral Detection = iota
	// DetectRing uses the decentralized Safra-style token protocol: no
	// coordinator at all, matching the paper's preference for fully
	// decentralized control. AIAC/SIAC modes only.
	DetectRing
)

// String returns the protocol's name.
func (d Detection) String() string {
	switch d {
	case DetectCentral:
		return "central"
	case DetectRing:
		return "ring"
	default:
		return fmt.Sprintf("detection(%d)", int(d))
	}
}

// Config describes one solver execution.
type Config struct {
	Mode    Mode
	P       int                // number of worker nodes
	Problem iterative.Problem  // the problem instance (must be safe for concurrent Update calls)
	Cluster *grid.Cluster      // execution platform (>= P nodes)
	Tol     float64            // local residual threshold
	MaxIter int                // per-node iteration safety bound
	MaxTime float64            // model-time safety bound (0 = none)
	LB      loadbalance.Policy // load balancing (AIAC modes only)

	// Detection selects the convergence-detection protocol (SISC always
	// uses its barrier coordinator regardless).
	Detection Detection
	// GaussSeidelLocal makes sweeps use the freshest already-updated
	// values of the node's own components (local Gauss-Seidel) instead of
	// the previous iterate (local Jacobi, the paper's Algorithm 1, the
	// default). §1.1 discusses the trade-off: Gauss-Seidel converges in
	// fewer sweeps but is inherently sequential — locally that
	// sequentiality is free, so this is a pure win knob.
	GaussSeidelLocal bool
	// poisonFree fills every buffer entering the run's list with NaN, and
	// every boundary message kept there with an impossible position and tag
	// and a NaN load, so that a read through a stale alias shows in the
	// result. Tests only.
	poisonFree bool
	// LBWarmup is how many iterations to wait before the first balancing
	// attempt (default: LB.Period).
	LBWarmup int

	// WorkScale converts problem work units into platform work units
	// (default 1).
	WorkScale float64

	// Mapping assigns chain ranks to cluster nodes: rank i runs on
	// cluster node Mapping[i]. Nil means the identity. The paper chose an
	// "irregular" logical organization on its grid (§6) — mappings make
	// that an explicit, experimentable knob.
	Mapping []int

	// Faults, when non-nil, injects deterministic, seed-replayable message
	// and compute faults into the run (see internal/fault). When
	// Faults.Kinds is nil the plan covers the engine's data-plane traffic
	// (boundary exchanges and the LB handshake) but leaves
	// convergence-detection control messages reliable; name detection
	// kinds explicitly to fault those too. A zero-rate plan is an exact
	// no-op: results are bit-identical to Faults == nil.
	Faults *fault.Plan
	// OwnershipLog, when non-nil, records every component-ownership
	// transition (initial assignment, ship, adopt, ack, restore) for
	// invariant checking with fault.CheckOwnership — each component owned
	// by exactly one node at all times, including mid-migration.
	OwnershipLog *fault.OwnershipLog

	// Seed is a label: the run's manifest records it (the frozen bench sets
	// it), and nothing in the run draws from it. The platform's seed is the
	// Cluster's and the faults' is Faults.Seed.
	Seed  int64
	Trace *trace.Log // optional event collection
	// Metrics, when non-nil, collects the run's telemetry: periodic
	// per-node samples, convergence-timeline events, messaging aggregates
	// and the run manifest (see internal/metrics). A nil sink costs the
	// hot path one pointer check per hook and no allocations.
	Metrics *metrics.Sink
	// TraceIters caps per-iteration trace events (0 = unlimited).
	TraceIters int

	// Runner selects the runtime; nil means the deterministic
	// virtual-time runtime.
	Runner runenv.Runner

	// Cancel, when non-nil, is polled during the run (between events under
	// vtime, periodically under rtime); once it returns true the world
	// stops and, unless the run converged first, the Result comes back
	// with Canceled set — partial state, sealed telemetry, outcome
	// "canceled". A run whose time limit stopped the world before the
	// cancel did reads TimedOut instead. The hook must be cheap and safe for
	// concurrent use (an atomic flag read); it is how the service control
	// plane and aiacrun's signal handler abort a running solve without
	// losing its artifacts. The dist backend does not support it.
	Cancel func() bool

	// Deprecated: SimWorkers is accepted and ignored. It selected a second,
	// windowed virtual-time scheduler that no longer exists; the field stays
	// only because the frozen benchmark sets it (bench/workloads.go:187,247)
	// and goes with the vt-table1-par workload (ROADMAP item 3(d)).
	SimWorkers int

	// free is the run's list of spent boundary messages and trajectory
	// buffers, shared by its nodes and, on a dist worker, by its codec. Run
	// and RunDistWorker set it; a node built on its own sets it in newNode.
	free *runFree
	// skipTally, when non-nil, receives every node's count of trajectory
	// entries promised frozen and produced, so that sweeps which silently
	// stop skipping fail a test, not a benchmark. Tests only.
	skipTally *skipTally
}

// A node reports convergence after convStreak consecutive converged
// iterations (SISC ignores it). Every component update is charged
// compOverhead platform work units on top of its own work and every
// iteration iterOverhead, modeling loop and messaging overheads.
const (
	convStreak   = 2
	compOverhead = 2
	iterOverhead = 100
)

func (c Config) withDefaults() Config {
	if c.WorkScale == 0 {
		c.WorkScale = 1
	}
	if c.LBWarmup == 0 {
		c.LBWarmup = c.LB.Period
	}
	if c.Runner == nil {
		c.Runner = vtime.Runner{}
	}
	return c
}

// Validate checks configuration consistency.
func (c Config) Validate() error {
	if c.Problem == nil {
		return errors.New("engine: Problem is required")
	}
	if c.Cluster == nil {
		return errors.New("engine: Cluster is required")
	}
	if c.P < 1 {
		return fmt.Errorf("engine: P = %d, need >= 1", c.P)
	}
	if c.Cluster.P() < c.P {
		return fmt.Errorf("engine: cluster has %d nodes, need %d", c.Cluster.P(), c.P)
	}
	if c.Tol <= 0 {
		return fmt.Errorf("engine: Tol = %g, need > 0", c.Tol)
	}
	if c.MaxIter < 1 {
		return fmt.Errorf("engine: MaxIter = %d, need >= 1", c.MaxIter)
	}
	if c.Mode < SISC || c.Mode > AIAC {
		return fmt.Errorf("engine: unknown %s", c.Mode)
	}
	if c.Detection != DetectCentral && c.Detection != DetectRing {
		return fmt.Errorf("engine: unknown %s", c.Detection)
	}
	// Zero means the default (or, for MaxTime and TraceIters, no bound); a
	// negative value would bypass the local criterion or charge negative
	// compute time.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"MaxTime", c.MaxTime},
		{"LBWarmup", float64(c.LBWarmup)},
		{"WorkScale", c.WorkScale},
		{"TraceIters", float64(c.TraceIters)},
	} {
		if !(f.v >= 0) {
			return fmt.Errorf("engine: %s = %g, need >= 0", f.name, f.v)
		}
	}
	m, h := c.Problem.Components(), c.Problem.Halo()
	if h < 1 {
		return fmt.Errorf("engine: problems with halo %d are not supported (need >= 1)", h)
	}
	if m/c.P < h {
		return fmt.Errorf("engine: %d components over %d nodes gives < halo (%d) per node", m, c.P, h)
	}
	if c.Mapping != nil {
		if len(c.Mapping) < c.P {
			return fmt.Errorf("engine: Mapping has %d entries, need %d", len(c.Mapping), c.P)
		}
		seen := make(map[int]bool, c.P)
		for i := 0; i < c.P; i++ {
			node := c.Mapping[i]
			if node < 0 || node >= c.Cluster.P() {
				return fmt.Errorf("engine: Mapping[%d] = %d out of cluster range", i, node)
			}
			if seen[node] {
				return fmt.Errorf("engine: Mapping assigns cluster node %d twice", node)
			}
			seen[node] = true
		}
	}
	if c.Detection == DetectRing && c.Mode == SISC {
		return errors.New("engine: ring detection does not apply to SISC (it has its own barrier coordinator)")
	}
	if err := c.LB.Validate(); err != nil {
		return err
	}
	if c.Faults != nil {
		// The world has P workers plus the detector/barrier process; a
		// plan naming anything else fails with a *fault.BadTargetError.
		if err := c.Faults.Validate(c.P + 1); err != nil {
			return err
		}
	}
	if c.LB.Enabled {
		if c.Mode != AIAC && c.Mode != AIACGeneral {
			return fmt.Errorf("engine: load balancing requires an AIAC mode, got %s", c.Mode)
		}
		if c.LB.MinKeep < h {
			return fmt.Errorf("engine: LB.MinKeep = %d must be >= halo %d", c.LB.MinKeep, h)
		}
		if m/c.P < c.LB.MinKeep {
			return fmt.Errorf("engine: initial distribution (%d comps) below LB.MinKeep %d", m/c.P, c.LB.MinKeep)
		}
	}
	return nil
}

// Result is a completed solver execution.
type Result struct {
	// Time is the end-to-end execution time in (virtual) seconds.
	Time float64
	// Converged is true when the run halted through convergence
	// detection (not through MaxIter abort or MaxTime stop). At most one
	// of Converged, TimedOut and Canceled is true; all three are false for
	// a MaxIter abort or a stall (see decide).
	Converged bool
	// TimedOut is true when the MaxTime safety bound stopped the world.
	TimedOut bool
	// Canceled is true when Config.Cancel stopped the world before the
	// detector halted it.
	Canceled bool

	// State[j] is the final trajectory of global component j.
	State [][]float64

	// Per-node data, indexed by rank.
	NodeIters  []int
	NodeWork   []float64
	NodeResid  []float64
	FinalCount []int // components owned at halt

	// Aggregates.
	TotalIters  int
	TotalWork   float64
	MaxResidual float64

	// Load balancing statistics.
	LBTransfers  int // accepted transfers
	LBRejects    int
	LBCompsMoved int
	LBRetries    int // retransmitted transfer-data messages

	// FaultStats counts the faults actually injected (all zero when
	// Faults is nil or a zero-rate plan).
	FaultStats fault.Stats

	// Messaging statistics.
	BoundaryMsgs  int
	SuppressedSnd int // sends skipped by the mutual exclusion (Figure 4)
}

// Run executes the configured solver and returns its result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	p := cfg.P
	cfg.free = newRunFree(cfg.Problem.TrajLen(), p, cfg.poisonFree)
	var wallStart time.Time
	if s := cfg.Metrics; s != nil {
		wallStart = time.Now()
		fillManifest(&s.Manifest, &cfg) // before Start opens the live stream with it
		s.Start(p)
	}
	outcomes := make([]*nodeOutcome, p)
	bodies := make([]runenv.Body, p+1)
	for i := 0; i < p; i++ {
		bodies[i] = nodeBody(&cfg, i, &outcomes[i])
	}
	var detOut detect.Outcome
	bodies[p] = detectorBody(&cfg, &detOut)

	var cause runenv.StopCause
	rcfg, inj := buildRunenvConfig(&cfg, p+1, &cause)
	end := cfg.Runner.Run(rcfg, bodies)

	var stats fault.Stats
	if inj != nil {
		stats = inj.Stats()
	}
	res, err := assembleResult(&cfg, outcomes, detOut, end, cause, stats)
	if err != nil {
		return res, err
	}
	finishMetrics(&cfg, res, wallStart)
	return res, nil
}

// nodeBody returns the process body of node rank, writing its outcome into
// *out when it halts.
func nodeBody(cfg *Config, rank int, out **nodeOutcome) runenv.Body {
	return func(env runenv.Env) {
		n := newNode(env, cfg, rank)
		*out = n.run()
	}
}

// protocol is the detection protocol the run uses: SISC always has its
// barrier.
func (c *Config) protocol() detect.Protocol {
	switch {
	case c.Mode == SISC:
		return detect.Barrier
	case c.Detection == DetectRing:
		return detect.Ring
	}
	return detect.Central
}

// detectorBody returns the body of the rank-P process slot: the
// protocol's coordinator, which under the ring returns at once. The
// detector outcome is written into *out.
func detectorBody(cfg *Config, out *detect.Outcome) runenv.Body {
	return func(env runenv.Env) {
		dcfg := detect.Config{
			P:          cfg.P,
			Protocol:   cfg.protocol(),
			TraceIters: cfg.TraceIters,
		}
		if s := cfg.Metrics; s != nil {
			dcfg.OnRound = func(t float64, round int) {
				s.Event(t, -1, "verify-round", strconv.Itoa(round))
			}
			dcfg.OnHalt = func(t float64, aborted bool) {
				detail := ""
				if aborted {
					detail = "aborted"
				}
				s.Event(t, -1, "halt", detail)
			}
		}
		*out = detect.Run(env, dcfg)
	}
}

// assembleResult aggregates per-node outcomes into the global Result: the
// verdict, the counters, the aggregates, and the two-pass state gather. It
// is shared by the in-process Run path and the distributed coordinator
// (which receives the outcomes over the wire).
func assembleResult(cfg *Config, outcomes []*nodeOutcome, detOut detect.Outcome, end float64, cause runenv.StopCause, stats fault.Stats) (*Result, error) {
	p := cfg.P
	res := &Result{
		Time:       end,
		NodeIters:  make([]int, p),
		NodeWork:   make([]float64, p),
		NodeResid:  make([]float64, p),
		FinalCount: make([]int, p),
		State:      make([][]float64, cfg.Problem.Components()),
		FaultStats: stats,
	}
	for r, o := range outcomes {
		if o == nil {
			return nil, fmt.Errorf("engine: node %d produced no outcome", r)
		}
		res.NodeIters[r] = o.iters
		res.NodeWork[r] = o.work
		res.NodeResid[r] = o.residual
		res.tally(o)
	}
	res.decide(cfg, outcomes, &detOut, cause)
	// Gather the state in two passes: regular copies first, then the
	// provisional (halt-time restored) copies to fill any position the
	// receiver side never integrated. FinalCount credits each position to
	// the rank whose copy was used, so it always sums to the component
	// count even when a transfer was unresolved at halt.
	for pass := 0; pass < 2; pass++ {
		for r, o := range outcomes {
			for i, pos := range o.positions {
				if o.provisional[i] != (pass == 1) {
					continue
				}
				if res.State[pos] == nil {
					res.State[pos] = o.trajs[i]
					res.FinalCount[r]++
				}
			}
		}
	}
	for j, tr := range res.State {
		if tr == nil {
			return res, fmt.Errorf("engine: component %d missing from the gathered state", j)
		}
	}
	return res, nil
}

// decide sets Converged, TimedOut and Canceled, at most one of them true.
// Convergence wins: the detector halted without an abort on a coordinated
// protocol, otherwise (and for a dist worker's share, which passes no det)
// every node in outcomes halted converged. Failing that, a cancel stop gives
// Canceled and a MaxTime stop TimedOut; a MaxIter abort and a stall neither.
func (res *Result) decide(cfg *Config, outcomes []*nodeOutcome, det *detect.Outcome, cause runenv.StopCause) {
	if det != nil && cfg.protocol().Coordinated() {
		res.Converged = det.Halted && !det.Aborted
	} else {
		res.Converged = true
		for _, o := range outcomes {
			res.Converged = res.Converged && o.haltedOK
		}
	}
	res.Canceled = !res.Converged && cause == runenv.StopCanceled
	res.TimedOut = !res.Converged && cause == runenv.StopMaxTime
}

// tally adds one node's outcome to the result's run-wide totals.
func (res *Result) tally(o *nodeOutcome) {
	res.TotalIters += o.iters
	res.TotalWork += o.work
	if o.residual > res.MaxResidual {
		res.MaxResidual = o.residual
	}
	res.LBTransfers += o.lbRecv
	res.LBRejects += o.lbRejected
	res.LBCompsMoved += o.compsMoved
	res.LBRetries += o.lbRetries
	res.BoundaryMsgs += o.msgsBoundary
	res.SuppressedSnd += o.suppressed
}

// finishMetrics seals the telemetry sink's manifest with the run outcome.
func finishMetrics(cfg *Config, res *Result, wallStart time.Time) {
	if s := cfg.Metrics; s != nil {
		s.FinishRun(outcomeOf(cfg, res, wallStart))
	}
}

// outcomeOf is the manifest's record of how the run ended: every sink that
// is sealed (a run's, a dist worker's) gets it here.
func outcomeOf(cfg *Config, res *Result, wallStart time.Time) metrics.Outcome {
	var traceDropped uint64
	if cfg.Trace != nil {
		traceDropped = cfg.Trace.Dropped()
	}
	return metrics.Outcome{
		TraceDropped:  traceDropped,
		Converged:     res.Converged,
		TimedOut:      res.TimedOut,
		Canceled:      res.Canceled,
		Time:          res.Time,
		WallSeconds:   time.Since(wallStart).Seconds(),
		TotalIters:    res.TotalIters,
		TotalWork:     res.TotalWork,
		MaxResidual:   res.MaxResidual,
		LBTransfers:   res.LBTransfers,
		LBRejects:     res.LBRejects,
		LBCompsMoved:  res.LBCompsMoved,
		LBRetries:     res.LBRetries,
		BoundaryMsgs:  res.BoundaryMsgs,
		SuppressedSnd: res.SuppressedSnd,
		Faults:        res.FaultStats,
	}
}

// fillManifest echoes the solver configuration into the telemetry manifest.
// Fields the caller pre-set (run name, problem/cluster labels, host info)
// are kept; the engine owns the generic echo.
func fillManifest(m *metrics.Manifest, cfg *Config) {
	if m.Mode == "" {
		m.Mode = cfg.Mode.String()
	}
	m.P = cfg.P
	m.Components = cfg.Problem.Components()
	m.Halo = cfg.Problem.Halo()
	m.Tol = cfg.Tol
	m.MaxIter = cfg.MaxIter
	m.MaxTime = cfg.MaxTime
	if m.Detection == "" {
		m.Detection = cfg.protocol().String()
	}
	m.GaussSeidel = cfg.GaussSeidelLocal
	m.Seed = cfg.Seed
	if cfg.Metrics != nil {
		m.MetricsPeriod = cfg.Metrics.Period
	}
	if cfg.LB.Enabled && m.LB == nil {
		m.LB = &metrics.LBManifest{
			Period:    cfg.LB.Period,
			MinKeep:   cfg.LB.MinKeep,
			Threshold: cfg.LB.ThresholdRatio,
			Lambda:    cfg.LB.Lambda,
			Estimator: cfg.LB.Estimator.String(),
			Smoothing: cfg.LB.Smoothing,
		}
	}
	if cfg.Faults != nil && m.FaultSeed == 0 {
		m.FaultSeed = cfg.Faults.Seed
	}
}

// mapRank returns the cluster node executing process i (the detector/barrier
// process, rank P, is co-located with rank 0).
func (c *Config) mapRank(i int) int {
	if i >= c.P {
		i = 0
	}
	if c.Mapping != nil {
		return c.Mapping[i]
	}
	return i
}

// buildRunenvConfig constructs the runtime configuration for a world of
// procs processes (the P nodes plus the detector slot), whose stop cause
// lands in *cause, and installs the fault hooks when the plan is effective;
// the returned injector is nil when no faults are active. Shared by the
// in-process backends and each distributed worker (which consults the hooks
// only for its local events).
func buildRunenvConfig(cfg *Config, procs int, cause *runenv.StopCause) (runenv.Config, *fault.Injector) {
	mapRank := cfg.mapRank
	ser := grid.NewSerializer(cfg.Cluster)
	rcfg := runenv.Config{
		Procs:    procs,
		Trace:    cfg.Trace,
		MaxTime:  cfg.MaxTime,
		Canceled: cfg.Cancel,
		OnStop:   func(c runenv.StopCause) { *cause = c },
		ComputeTime: func(node int, start, units float64) float64 {
			return cfg.Cluster.ComputeTime(mapRank(node), start, units)
		},
		// A fresh serializer per run: links transmit one message at a
		// time, so heavy balancing traffic can actually overload them.
		Delay: func(from, to, bytes int, now float64) float64 {
			return ser.Delay(mapRank(from), mapRank(to), bytes, now)
		},
	}
	if s := cfg.Metrics; s != nil {
		rcfg.Observer = s
	}
	var inj *fault.Injector
	if cfg.Faults != nil && !cfg.Faults.Zero() {
		// Already validated by Run; faults act on process ranks (pre-
		// mapping), matching the OwnershipLog and the test harness.
		inj = cfg.Faults.MustCompile(procs)
		rcfg.FaultHook = scopedFaultHook(cfg, inj)
		rcfg.ComputeTime = inj.WrapCompute(rcfg.ComputeTime)
	}
	return rcfg, inj
}

// scopedFaultHook wraps an injector's message hook with the engine's kind
// scoping (Config.faultable) and per-node metrics attribution.
func scopedFaultHook(cfg *Config, inj *fault.Injector) func(from, to, kind, bytes int, now, delay float64) runenv.MsgFault {
	hook := func(from, to, kind, bytes int, now, delay float64) runenv.MsgFault {
		if !cfg.faultable(kind) {
			return runenv.MsgFault{}
		}
		return inj.MsgFault(from, to, kind, bytes, now, delay)
	}
	if s := cfg.Metrics; s != nil {
		// Per-node fault attribution: any non-default fate counts
		// against the destination's inbound links. (MsgFault is not
		// comparable — DupDelays is a slice — so test field by field.)
		inner := hook
		hook = func(from, to, kind, bytes int, now, delay float64) runenv.MsgFault {
			f := inner(from, to, kind, bytes, now, delay)
			if f.Drop || f.Reorder || f.ExtraDelay != 0 || len(f.DupDelays) > 0 {
				s.CountFault(to, now)
			}
			return f
		}
	}
	return hook
}

// partition returns the initial contiguous component range of a rank:
// components are "initially homogeneously distributed over the processors"
// (§5).
func partition(m, p, rank int) (lo, hi int) {
	lo = rank * m / p
	hi = (rank + 1) * m / p
	return lo, hi
}
