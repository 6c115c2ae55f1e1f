package main

import (
	"net"
	"sync"
	"time"

	"aiac"
	"aiac/internal/metrics"
	"aiac/internal/trace"
	"aiac/internal/vtime"
)

// tracer is the state of a traced pass: the span recorder plus, per layer,
// the counters the decorators hand back, summed over the traced ops.
type tracer struct {
	rec *recorder

	mu  sync.Mutex // svc-closed traces from two clients
	ops int        // traced ops begun; the op id of the latest

	kernelCalls, kernelWork int64
	kernelBusy              time.Duration

	vtEvents                       int64 // Work + Send + Recv calls into the virtual-time Env
	rtSends                        int64
	rtRecvWait, rtWorkWait, rtSend time.Duration

	wireFrames, wireBytes int64
	wireWriteBlock        time.Duration
	distStartups          []float64 // SolveDist call to first message frame, seconds
	frames                [][]byte  // captured message frames, for the codec probes

	http                           httpCounters
	startDelay, runS, sealToClient []float64
	jsonlBytes, jsonlRuns          int64

	deepStats
}

// deepStats is what the program's own Config.Trace and Config.Metrics said
// about the deep op.
type deepStats struct {
	traceEvents   int
	crit          [trace.NumSegKinds]float64 // shares of the critical path
	wireTransitUs []float64
	sim           *metrics.SimManifest
	log           *trace.Log         // kept for the export probes
	workerTraces  []*trace.ProcTrace // dist-loopback only
	run           *metrics.Run       // svc-closed only: one run's telemetry, for the writer probes
}

func newTracer() *tracer { return &tracer{rec: newRecorder()} }

// opTrace is one traced op: its root span and where to hang the rest.
type opTrace struct {
	tr   *tracer
	op   int
	root int
}

func (tr *tracer) begin() *opTrace {
	tr.mu.Lock()
	tr.ops++
	op := tr.ops
	tr.mu.Unlock()
	return &opTrace{tr: tr, op: op, root: tr.rec.open(0, op, "harness.op", -1)}
}

func (ot *opTrace) end() { ot.tr.rec.close(ot.root) }

// check runs the harness's answer check under its own span, so that it is
// not charged to the program.
func (ot *opTrace) check(f func()) {
	id := ot.tr.rec.open(ot.root, ot.op, "harness.check", -1)
	f()
	ot.tr.rec.close(id)
}

// workerFunc runs one dist worker; around wraps it (see solverSession.solve).
type workerFunc func(w aiac.DistWorkerEnv, cfg aiac.Config, opts aiac.DistWorkerOptions) error

// solve runs one solver op behind the decorators and records its spans:
//
//	harness.op
//	  engine.solve                 the library call
//	    solver.update              virtual time: every kernel call of the op
//	    engine.ranks               real time: the rank bodies, summed
//	      solver.update, rtime.work_wait, rtime.recv_wait, rtime.send
//	    dtime.worker (each)        dist: one worker's SolveDistWorker call
//	      solver.update, dtime.conn_write
//	  harness.check
func (ot *opTrace) solve(s *solverSession, cfg aiac.Config) (*aiac.Result, float64, error) {
	tr, rec := ot.tr, ot.tr.rec
	var kernel kernelCounters
	var runner *tracedRunner
	type workerRec struct {
		worker     int
		start, end time.Time
		kernel     *kernelCounters
		wire       *wireCounters
	}
	var wmu sync.Mutex
	var workers []workerRec
	var around func(workerFunc) workerFunc
	if s.spec.dist {
		around = func(next workerFunc) workerFunc {
			return func(w aiac.DistWorkerEnv, wcfg aiac.Config, wopts aiac.DistWorkerOptions) error {
				wr := workerRec{worker: w.Worker, kernel: &kernelCounters{}, wire: &wireCounters{}}
				wcfg.Problem = traceProblem(wcfg.Problem, wr.kernel)
				wopts.WrapConn = wr.wire.wrap
				wr.start = time.Now()
				err := next(w, wcfg, wopts)
				wr.end = time.Now()
				wmu.Lock()
				workers = append(workers, wr)
				wmu.Unlock()
				return err
			}
		}
	} else {
		cfg.Problem = traceProblem(cfg.Problem, &kernel)
		inner := cfg.Runner
		if inner == nil {
			inner = vtime.Runner{}
		}
		runner = &tracedRunner{inner: inner, timed: s.spec.real}
		cfg.Runner = runner
	}

	solveID := rec.open(ot.root, ot.op, "engine.solve", -1)
	called := time.Now()
	res, err := s.solve(cfg, around)
	rec.close(solveID)
	sp := rec.get(solveID)

	tr.mu.Lock()
	defer tr.mu.Unlock()
	addKernel := func(parent, rank int, k *kernelCounters) {
		calls, busy := k.calls.Load(), time.Duration(k.ns.Load())
		rec.aggregate(parent, ot.op, "solver.update", rank, calls, busy)
		tr.kernelCalls += calls
		tr.kernelWork += k.work.Load()
		tr.kernelBusy += busy
	}
	switch {
	case s.spec.dist:
		for _, wr := range workers {
			wid := rec.interval(solveID, ot.op, "dtime.worker", wr.worker, wr.start, wr.end)
			addKernel(wid, wr.worker, wr.kernel)
			block := time.Duration(wr.wire.writeNs.Load())
			rec.aggregate(wid, ot.op, "dtime.conn_write", wr.worker, wr.wire.frames.Load(), block)
			tr.wireFrames += wr.wire.frames.Load()
			tr.wireBytes += wr.wire.bytesOut.Load() + wr.wire.bytesIn.Load()
			tr.wireWriteBlock += block
			if first := wr.wire.firstMsg.Load(); first != 0 {
				tr.distStartups = append(tr.distStartups, time.Unix(0, first).Sub(called).Seconds())
			}
			for _, f := range wr.wire.captured {
				if len(tr.frames) < maxCapturedFrames {
					tr.frames = append(tr.frames, f)
				}
			}
		}
	case s.spec.real:
		// The last body is the convergence detector: it sleeps in
		// RecvWait for the whole solve and would only dilute the ranks.
		var bodies, workWait, recvWait, send time.Duration
		var works, recvs, sends int64
		for i, rc := range runner.ranks {
			tr.rtSends += rc.sends
			if i == len(runner.ranks)-1 {
				continue
			}
			bodies += rc.end.Sub(rc.start)
			workWait, recvWait, send = workWait+rc.workWait, recvWait+rc.recvWait, send+rc.sendTime
			works, recvs, sends = works+rc.work, recvs+rc.recvs, sends+rc.sends
		}
		ranks := rec.aggregate(solveID, ot.op, "engine.ranks", -1, int64(len(runner.ranks)-1), bodies)
		addKernel(ranks, -1, &kernel)
		rec.aggregate(ranks, ot.op, "rtime.work_wait", -1, works, workWait)
		rec.aggregate(ranks, ot.op, "rtime.recv_wait", -1, recvs, recvWait)
		rec.aggregate(ranks, ot.op, "rtime.send", -1, sends, send)
		tr.rtWorkWait, tr.rtRecvWait, tr.rtSend = tr.rtWorkWait+workWait, tr.rtRecvWait+recvWait, tr.rtSend+send
	default:
		for _, rc := range runner.ranks {
			tr.vtEvents += rc.work + rc.sends + rc.recvs
		}
		addKernel(solveID, -1, &kernel)
	}
	return res, sp.dur(), err
}

func (c *wireCounters) wrap(conn net.Conn) net.Conn { return tracedConn{Conn: conn, c: c} }

// deep runs the op once more with Config.Trace and Config.Metrics on and
// the plain runner (a decorated one hides the scheduler's window statistics
// from the manifest), and reads the program's own account of the solve.
func (s *solverSession) deep(tr *tracer) opResult {
	cfg := s.config()
	tlog, sink := &trace.Log{}, &metrics.Sink{}
	cfg.Trace, cfg.Metrics = tlog, sink
	var traces []*trace.ProcTrace
	var tmu sync.Mutex
	var around func(workerFunc) workerFunc
	if s.spec.dist {
		// Keep each worker's own log: the federation probe replays them.
		around = func(next workerFunc) workerFunc {
			return func(w aiac.DistWorkerEnv, wcfg aiac.Config, wopts aiac.DistWorkerOptions) error {
				err := next(w, wcfg, wopts)
				tmu.Lock()
				traces = append(traces, &trace.ProcTrace{Proc: w.Worker, Ranks: w.Ranks, Speedup: speedup, Events: wcfg.Trace.Events()})
				tmu.Unlock()
				return err
			}
		}
	}
	t0 := time.Now()
	res, err := s.solve(cfg, around)
	r := s.result(res, time.Since(t0).Seconds(), err)
	if r.err != nil {
		return r
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	d := &tr.deepStats
	d.log, d.workerTraces = tlog, traces
	events := tlog.Events()
	d.traceEvents = len(events)
	if cp := trace.Analyze(events); cp != nil && cp.Total() > 0 {
		for k, sec := range cp.ByKind {
			d.crit[k] = sec / cp.Total()
		}
	}
	for _, ev := range events {
		if ev.Kind == trace.Wire && ev.To >= 0 {
			d.wireTransitUs = append(d.wireTransitUs, (ev.T1-ev.T0)/speedup*1e6)
		}
	}
	d.sim = sink.Manifest.Sim
	var n countingWriter
	if err := sink.WriteJSONL(&n); err != nil {
		r.err = err
		return r
	}
	tr.jsonlBytes, tr.jsonlRuns = tr.jsonlBytes+int64(n), tr.jsonlRuns+1
	return r
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
