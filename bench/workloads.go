package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"aiac"
	"aiac/internal/brusselator"
	"aiac/internal/dtime"
	"aiac/internal/metrics"
	"aiac/internal/rtime"
	"aiac/internal/trace"
)

const (
	// refSeconds is the run length the op counts below are sized for;
	// -seconds scales them linearly.
	refSeconds = 20
	// windowChunks is how many chunks the timed window is cut into, and
	// setupsPerChunk how many times the program is set up from nothing before
	// each: 64 set-up reps a run.
	windowChunks   = 16
	setupsPerChunk = 4
	// warmupOps run after set-up and before the timed window.
	warmupOps = 2
	// speedJitter is the relative size of the seeded perturbation of the
	// platform's node speeds. It is this small because an asynchronous solve
	// amplifies anything larger into another trajectory — iterations and
	// model time move by about a percent — and the acceptance check compares
	// model time across seeds at a tenth of that. In the ninth digit the
	// seed changes the inputs and the model time, not the run.
	speedJitter = 1e-9
	// dtJitter is the relative size of the seeded perturbation of the time
	// step of svc-closed's submissions, the one continuous field of a
	// RunSpec.
	dtJitter = 1e-3
	// answerTol bounds max |state - brusselator.Reference|. Converged solves
	// measure 1-6e-6; the false halts of ROADMAP item 0 measure 1e-4 to 0.6.
	answerTol = 1e-4
	// speedup is model seconds per wall second on the real-time backends.
	speedup = 200
)

// workload is one named set of inputs together with the way one op runs on
// them. Names are cited by later issues; do not rename.
type workload struct {
	name, why string
	ops       int // ops of the timed window at refSeconds
	clients   int // closed-loop clients sharing the window
	// procs is the run's GOMAXPROCS; 0 leaves the default. The two vt-*
	// workloads run on one P, both the same way: on this host a second P
	// makes either scheduler slower (the windowed one by 7%, the sequential
	// one by 27% and more: its coroutine hand-offs start to cross threads),
	// so one P is where each is at its best and where they compare.
	procs int
	// solver describes the library solve an op makes; nil means ops go
	// through the HTTP control plane instead.
	solver *solverSpec
}

// service reports whether ops go through the HTTP control plane.
func (w *workload) service() bool { return w.solver == nil }

// open sets the program up from nothing: everything an op needs that a user
// would build once and reuse. rep says the session is a set-up rep rather
// than the one the timed window runs on.
func (w *workload) open(h *harness, rep bool) (session, error) {
	if w.service() {
		return openService(h, rep)
	}
	return w.solver.open(h)
}

// session is one set-up of a workload.
type session interface {
	// prepare generates the inputs of ops [0, n) and what checking them
	// needs, so that none of it lands in the timed window.
	prepare(n int) error
	// op runs the i-th op and checks its answer; it never panics on a
	// failed op. tr is nil in the untraced pass.
	op(i int, tr *tracer) opResult
	// deep runs one more op with the program's own Config.Trace and
	// Config.Metrics on, and adds what they say to tr.
	deep(tr *tracer) opResult
	close()
}

// opResult is what the harness keeps of one op.
type opResult struct {
	wall      float64 // seconds inside the program
	modelTime float64 // model seconds to the solution, see solverSession.result
	counts    opCounts
	err       error // nil: converged, checked, correct
}

// opCounts are the program's own per-solve counters (aiac.Result and the
// service's sealed Outcome carry the same ones).
type opCounts struct {
	iters, boundaryMsgs, suppressed      float64
	lbTransfers, lbCompsMoved, lbRetries float64
}

func (c *opCounts) add(o opCounts) {
	c.iters += o.iters
	c.boundaryMsgs += o.boundaryMsgs
	c.suppressed += o.suppressed
	c.lbTransfers += o.lbTransfers
	c.lbCompsMoved += o.lbCompsMoved
	c.lbRetries += o.lbRetries
}

func resultCounts(r *aiac.Result) opCounts {
	return opCounts{
		iters:        float64(r.TotalIters),
		boundaryMsgs: float64(r.BoundaryMsgs),
		suppressed:   float64(r.SuppressedSnd),
		lbTransfers:  float64(r.LBTransfers),
		lbCompsMoved: float64(r.LBCompsMoved),
		lbRetries:    float64(r.LBRetries),
	}
}

var workloads = []workload{
	{
		name: "vt-table1", ops: 70, clients: 1, procs: 1,
		why:    "the paper's Table-1 solve (15 ranks, 3-site grid, load balancing) on the sequential virtual-time scheduler: Newton kernel, engine sweep and the event heap are the whole cost",
		solver: table1(0),
	},
	{
		name: "vt-table1-par", ops: 70, clients: 1, procs: 1,
		why:    "the same solve with SimWorkers 2: the windowed lookahead scheduler instead of the heap, so a change that helps one scheduler at the other's cost shows",
		solver: table1(2),
	},
	{
		name: "rt-pair", ops: 150, clients: 1,
		why:    "a 2-rank balanced solve on real goroutines and timers: runtime hand-off, delivery and waiting dominate and the kernel is a small share",
		solver: pair(false),
	},
	{
		name: "dist-loopback", ops: 120, clients: 1,
		why:    "rt-pair's solve through SolveDist with 2 in-process workers: every message also crosses the frame codec, payload codec and TCP star relay",
		solver: pair(true),
	},
	{
		name: "svc-closed", ops: 14000, clients: 2,
		why: "2 closed-loop HTTP clients submitting millisecond solves: registry I/O, scheduler hand-off, artifact writing and SSE are the cost, engine set-up and teardown the rest",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// solverSpec describes the four workloads whose op is one library solve of a
// Brusselator.
type solverSpec struct {
	params  brusselator.Params
	cluster func() *aiac.Cluster
	cfg     aiac.Config // Problem, Cluster and Runner are filled per op
	real    bool        // rtime.Runner instead of virtual time
	dist    bool        // through SolveDist
}

// table1 is the load-balanced AIAC solve of experiments.Table1 at quick
// scale, halved in N so that one op is short: the platform, tolerance and
// balancing policy are the experiment's own (experiments.lbPolicy).
func table1(simWorkers int) *solverSpec {
	p := brusselator.DefaultParams(120, 0.005)
	p.T = 0.25
	lb := aiac.DefaultLBPolicy()
	lb.Period, lb.MinKeep, lb.Smoothing = 20, 2, 0.2
	return &solverSpec{
		params: p,
		cluster: func() *aiac.Cluster {
			return aiac.HeteroGrid15(aiac.HeteroGridConfig{Seed: 100, MultiUser: true})
		},
		cfg: aiac.Config{
			Mode: aiac.AIAC, P: 15, Tol: 1e-6, MaxIter: 200000, MaxTime: 100000,
			LB: lb, SimWorkers: simWorkers,
		},
	}
}

// pair is the 2-rank balanced solve of the two real-time workloads. At 64
// components an op would take 25 ms instead of 150 and its fastest would
// repeat better (README, finding 8), but one such op in about 600 halts early
// with a wrong answer (ROADMAP item 0; finding 9): it stays at 128.
func pair(dist bool) *solverSpec {
	p := brusselator.DefaultParams(128, 0.05)
	p.T = 1
	return &solverSpec{
		params:  p,
		cluster: func() *aiac.Cluster { return aiac.Homogeneous(2) },
		cfg: aiac.Config{
			Mode: aiac.AIAC, P: 2, Tol: 1e-7, MaxIter: 500000, MaxTime: 2000,
			LB: aiac.DefaultLBPolicy(), Seed: 1,
		},
		real: true, dist: dist,
	}
}

// solverSession is one set-up of a solver workload. Every op of a run solves
// the same input, so that the ops of a window differ by the host's weather
// and nothing else.
type solverSession struct {
	spec    *solverSpec
	dir     string
	cluster *aiac.Cluster
	prob    *brusselator.Problem
	ref     [][]float64
	// model is the input solved on the sequential virtual-time scheduler,
	// once, before the window: see result.
	model *aiac.Result
}

// open is the set-up of a solver workload: a fresh directory, the platform
// generated from the run's seed, the problem and its reference solution.
func (spec *solverSpec) open(h *harness) (session, error) {
	dir, err := os.MkdirTemp(h.root, "solve-")
	if err != nil {
		return nil, err
	}
	s := &solverSession{spec: spec, dir: dir, cluster: spec.cluster(), prob: brusselator.New(spec.params)}
	rng := rand.New(rand.NewSource(h.seed))
	for i := range s.cluster.Nodes {
		s.cluster.Nodes[i].Speed *= 1 + speedJitter*(2*rng.Float64()-1)
	}
	if s.ref, _, err = brusselator.Reference(spec.params); err != nil {
		s.close()
		return nil, fmt.Errorf("reference solution: %w", err)
	}
	return s, nil
}

func (s *solverSession) close() { os.RemoveAll(s.dir) }

func (s *solverSession) prepare(int) error {
	cfg := s.config()
	cfg.Runner, cfg.SimWorkers = nil, 0
	res, err := aiac.Solve(cfg)
	if err == nil && !res.Converged {
		err = errors.New("did not converge")
	}
	if err != nil {
		return fmt.Errorf("sequential virtual-time solve of the input: %w", err)
	}
	s.model = res
	return nil
}

func (s *solverSession) config() aiac.Config {
	cfg := s.spec.cfg
	cfg.Problem, cfg.Cluster = s.prob, s.cluster
	if s.spec.real {
		cfg.Runner = rtime.Runner{Speedup: speedup}
	}
	return cfg
}

func (s *solverSession) op(_ int, tr *tracer) opResult {
	cfg := s.config()
	if tr == nil {
		t0 := time.Now()
		res, err := s.solve(cfg, nil)
		return s.result(res, time.Since(t0).Seconds(), err)
	}
	ot := tr.begin()
	defer ot.end()
	res, wall, err := ot.solve(s, cfg)
	var r opResult
	ot.check(func() { r = s.result(res, wall, err) })
	return r
}

// solve is the program's entry point for the workload. On dist-loopback
// around, when non-nil, wraps each worker's SolveDistWorker call.
func (s *solverSession) solve(cfg aiac.Config, around func(workerFunc) workerFunc) (*aiac.Result, error) {
	if !s.spec.dist {
		return aiac.Solve(cfg)
	}
	run := workerFunc(func(w aiac.DistWorkerEnv, wcfg aiac.Config, wopts aiac.DistWorkerOptions) error {
		return aiac.SolveDistWorker(wcfg, w, wopts)
	})
	if around != nil {
		run = around(run)
	}
	res, info, err := aiac.SolveDist(cfg, aiac.DistOptions{
		Workers: 2,
		RunRoot: s.dir,
		Speedup: speedup,
		Spawn: dtime.GoroutineSpawner(func(w aiac.DistWorkerEnv) error {
			wcfg := cfg
			// A worker is a process of its own in production: it shares
			// neither the coordinator's trace log nor its telemetry sink.
			if cfg.Trace != nil {
				wcfg.Trace = &trace.Log{}
			}
			if cfg.Metrics != nil {
				wcfg.Metrics = &metrics.Sink{}
			}
			return run(w, wcfg, aiac.DistWorkerOptions{Speedup: speedup})
		}),
		HeartbeatTimeout: 10 * time.Second,
		Wall:             30 * time.Second,
	})
	if info != nil && info.RunDir != "" {
		os.RemoveAll(info.RunDir)
	}
	return res, err
}

// result checks one solve against the reference solution. A virtual-time
// solve must also reproduce, bit for bit, the sequential scheduler's solve of
// the same input: that is what makes vt-table1-par answer for the windowed
// scheduler and model_time_s a figure that repeats. A failed op is reported,
// never fatal.
//
// The op's model time is that sequential solve's Result.Time on every solver
// workload. On the real-time ones Result.Time is wall clock times speedup,
// which op_wall_s_min already says; what virtual time predicts for their
// solve is the one model figure they have.
func (s *solverSession) result(res *aiac.Result, wall float64, err error) opResult {
	r := opResult{wall: wall}
	switch {
	case err != nil:
		r.err = err
		return r
	case !res.Converged:
		r.err = errors.New("did not converge")
	default:
		if d := brusselator.MaxTrajDiff(res.State, s.ref); !(d <= answerTol) {
			r.err = fmt.Errorf("answer off the reference by %.3g (bound %g)", d, answerTol)
		}
	}
	r.counts = resultCounts(res)
	if s.model == nil { // a set-up rep's or a test's session: not prepared
		return r
	}
	r.modelTime = s.model.Time
	if !s.spec.real && r.err == nil && (res.Time != s.model.Time || brusselator.MaxTrajDiff(res.State, s.model.State) != 0) {
		r.err = fmt.Errorf("differs from the sequential scheduler's solve: time %v vs %v", res.Time, s.model.Time)
	}
	return r
}
