package engine

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"aiac/internal/detect"
	"aiac/internal/dtime"
	"aiac/internal/fault"
	"aiac/internal/grid"
	"aiac/internal/metrics"
	"aiac/internal/rtime"
	"aiac/internal/runenv"
	"aiac/internal/trace"
)

// DistOptions configures a distributed (multi-OS-process) run.
type DistOptions struct {
	// Workers is the number of worker processes the P node ranks (plus the
	// detector slot, co-located with rank 0) are spread over. Default 2.
	Workers int
	// Spawn launches one worker; required. Use dtime.SpawnCommand to re-
	// exec a binary with a hidden worker mode (cmd/aiacrun does), or
	// dtime.GoroutineSpawner for in-process loopback workers (tests).
	Spawn func(w dtime.WorkerEnv) (dtime.Process, error)
	// RunID names the run ("" = fresh random id); RunRoot holds the run
	// directories ("" = os.TempDir()).
	RunID   string
	RunRoot string
	// Coordinator supervision bounds (zero = dtime defaults).
	HeartbeatTimeout time.Duration
	Connect          time.Duration
	Wall             time.Duration
	// Speedup is the model-to-wall time scale the workers run at (default
	// rtime.DefaultSpeedup). The coordinator only needs it when tracing: the
	// federated clock normalization requires every process on one scale.
	Speedup float64
}

// RunDist executes the configured solver across worker OS processes and
// assembles the global Result from their reported outcomes, exactly as Run
// assembles it in process. The workers' telemetry and traces come back with
// their outcomes, so cfg.Metrics and cfg.Trace then hold the whole run, as
// after Run. The second return is the coordinator's run record (run
// directory, worker identities, federated end time).
func RunDist(cfg Config, opts DistOptions) (*Result, *dtime.RunInfo, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	cfg = cfg.withDefaults()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	if opts.Workers < 1 || opts.Workers > cfg.P {
		return nil, nil, fmt.Errorf("engine: %d workers for %d node ranks", opts.Workers, cfg.P)
	}
	if opts.RunID == "" {
		opts.RunID = dtime.NewRunID()
	}
	wallStart := time.Now()
	if s := cfg.Metrics; s != nil {
		s.Manifest.Dist = &metrics.DistManifest{RunID: opts.RunID, Workers: opts.Workers, Role: "coordinator"}
		fillManifest(&s.Manifest, &cfg) // before Start opens the live stream with it
		s.Start(cfg.P)
	}

	// When the caller traces, the coordinator keeps its own wire log
	// (relay spans, supervision marks) and collects the workers' logs,
	// federated below into the caller's cfg.Trace.
	var wireLog *trace.Log
	if cfg.Trace != nil {
		wireLog = &trace.Log{}
	}
	blobs, info, err := dtime.Run(dtime.Options{
		Workers:          opts.Workers,
		Ranks:            cfg.P + 1,
		RankWorker:       dtime.DefaultRankWorker(cfg.P, opts.Workers),
		Spawn:            opts.Spawn,
		RunID:            opts.RunID,
		RunRoot:          opts.RunRoot,
		HeartbeatTimeout: opts.HeartbeatTimeout,
		Connect:          opts.Connect,
		Wall:             opts.Wall,
		Trace:            wireLog,
		Speedup:          opts.Speedup,
	})
	if err != nil {
		return nil, info, err
	}

	outcomes := make([]*nodeOutcome, cfg.P)
	var detOut detect.Outcome
	var cause runenv.StopCause
	var stats fault.Stats
	var traces []trace.ProcTrace
	sawDet := false
	for w, blob := range blobs {
		wr, err := decodeWorkerResult(blob)
		if err != nil {
			return nil, info, fmt.Errorf("engine: worker %d outcome: %w", w, err)
		}
		if cfg.Metrics != nil && len(wr.telemetry) > 0 {
			run, err := metrics.ReadRun(bytes.NewReader(wr.telemetry))
			if err == nil {
				err = cfg.Metrics.Merge(run)
			}
			if err != nil {
				return nil, info, fmt.Errorf("engine: worker %d telemetry: %w", w, err)
			}
		}
		if cfg.Trace != nil {
			if wr.trace == nil {
				return nil, info, fmt.Errorf("engine: worker %d sent no trace to a traced run", w)
			}
			pt := *wr.trace
			pt.Proc, pt.RunID = w, info.RunID
			pt.Ranks, pt.Start = info.Workers[w].Ranks, info.Workers[w].ClockStart
			traces = append(traces, pt)
		}
		for i, rank := range wr.ranks {
			if rank < 0 || rank >= cfg.P {
				return nil, info, fmt.Errorf("engine: worker %d reported unknown rank %d", w, rank)
			}
			if outcomes[rank] != nil {
				return nil, info, fmt.Errorf("engine: rank %d reported by two workers", rank)
			}
			outcomes[rank] = wr.outcomes[i]
		}
		if wr.hasDet {
			detOut = wr.detOut
			sawDet = true
		}
		cause = max(cause, wr.cause) // a dist world can only time out
		stats.Add(wr.stats)
	}
	if cfg.protocol().Coordinated() && !sawDet {
		return nil, info, fmt.Errorf("engine: no worker reported the detector outcome")
	}

	res, err := assembleResult(&cfg, outcomes, detOut, info.EndTime, cause, stats)
	if err != nil {
		return res, info, err
	}
	finishMetrics(&cfg, res, wallStart)
	if cfg.Trace != nil {
		if err := federateTrace(&cfg, opts, info, wireLog, traces); err != nil {
			return res, info, fmt.Errorf("engine: federate trace: %w", err)
		}
	}
	return res, info, nil
}

// federateTrace merges the worker traces that came back in the outcome blobs
// with the coordinator's wire log into cfg.Trace: the caller's log then reads
// as one global causal stream, so every single-process export path (CSV,
// Chrome, critical path) works on a distributed run unchanged.
func federateTrace(cfg *Config, opts DistOptions, info *dtime.RunInfo, wireLog *trace.Log, workers []trace.ProcTrace) error {
	coord := &trace.ProcTrace{
		Proc:    len(workers),
		RunID:   info.RunID,
		Start:   info.TraceStart,
		Speedup: rtime.Speedup(opts.Speedup),
		Dropped: wireLog.Dropped(),
		Events:  wireLog.Events(),
	}
	fed, err := trace.Federate(workers, coord)
	if err != nil {
		return err
	}
	cfg.Trace.SetEvents(fed.Events())
	return nil
}

// DistWorkerOptions configures the worker-process half of a distributed
// run.
type DistWorkerOptions struct {
	// Speedup scales model time to wall time on this worker (default
	// rtime.DefaultSpeedup), matching rtime.Runner.Speedup.
	Speedup float64
	// WrapConn, when non-nil, wraps the coordinator connection. A faulted
	// run's wire faults sit outside it: what the worker writes meets the
	// fault plan first, then WrapConn.
	WrapConn func(net.Conn) net.Conn
	// ObsAddr is this worker's /metrics listen address, reported to the
	// coordinator (empty = no observability plane).
	ObsAddr string
}

// faultable reports whether the run's fault plan may act on a message of
// the given kind. A plan that names no Kinds covers the data plane only:
// convergence detection and the SISC barrier ride a reliable control
// channel. A plan that names Kinds leaves the choice to its injector. The
// in-process hook and the wire wrapper both ask it, so a message kind is
// faulted alike on either side of the process boundary.
func (c *Config) faultable(kind int) bool {
	return c.Faults.Kinds != nil || kind < runenv.ControlKindBase
}

// wireFaults wraps a worker's coordinator connection for a faulted run: the
// frames it writes face cfg.Faults as real packet loss, duplication and
// delay on the wire, scoped by faultable like the in-process hook. Each
// directed remote link is faulted only here — the worker's rtime.World skips
// FaultHook for remote sends — so the per-link decision streams stay
// disjoint from the local ones. The fault layer goes outside wrap. The
// returned injector carries the wire-fault counters; with no faults active
// it is nil and wrap comes back as it was.
func wireFaults(cfg *Config, speedup float64, wrap func(net.Conn) net.Conn) (func(net.Conn) net.Conn, *fault.Injector) {
	if cfg.Faults == nil || cfg.Faults.Zero() {
		return wrap, nil
	}
	inj := cfg.Faults.MustCompile(cfg.P + 1)
	ser := grid.NewSerializer(cfg.Cluster)
	var serMu sync.Mutex
	return func(inner net.Conn) net.Conn {
		if wrap != nil {
			inner = wrap(inner)
		}
		// The wrapper has no model clock; injection marks are stamped on a
		// wall clock anchored at wrap time (the dial, moments before the
		// worker's own clock origin), close enough for zero-duration
		// annotations the critical-path walk never consumes.
		wrapStart := time.Now()
		var onFault func(from, to, kind, bytes int, drop bool, dups int, delay float64)
		if tlog := cfg.Trace; tlog != nil {
			onFault = func(from, to, kind, bytes int, drop bool, dups int, delay float64) {
				t := time.Since(wrapStart).Seconds() * speedup
				tlog.Add(trace.Event{
					T0: t, T1: t, Node: from, To: -1, Kind: trace.Mark, Iter: -1,
					Note: fmt.Sprintf("wire-fault %d→%d drop=%t dup=%d delay=%.3g", from, to, drop, dups, delay),
				})
			}
		}
		return fault.NewConn(inner, inj, fault.ConnOptions{
			FrameLen: func(buf []byte) (int, error) {
				return dtime.FrameLen(buf, dtime.MaxFrame)
			},
			Classify: func(frame []byte) (from, to, kind, bytes int, ok bool) {
				typ, payload, _, err := dtime.DecodeFrame(frame, dtime.MaxFrame)
				if err != nil || typ != dtime.FrameMsg {
					return 0, 0, 0, 0, false
				}
				from, to, kind, bytes, _, _, ok = dtime.EnvelopeInfo(payload)
				if !ok || !cfg.faultable(kind) {
					return 0, 0, 0, 0, false
				}
				return from, to, kind, bytes, true
			},
			Delay: func(from, to, bytes int) float64 {
				// The wrapper has no model clock; a zero-now serializer
				// still yields the link's base latency + transfer time,
				// which is all the plan scales its jitter from.
				serMu.Lock()
				defer serMu.Unlock()
				return ser.Delay(cfg.mapRank(from), cfg.mapRank(to), bytes, 0)
			},
			WallScale: 1 / speedup,
			OnFault:   onFault,
		})
	}, inj
}

// RunDistWorker executes this process's share of a distributed run: it
// joins the coordinator named by wenv, runs the locally hosted ranks with
// the exact same bodies and runtime hooks Run would use, seals cfg.Metrics
// with its own ranks' outcome, and reports the outcome blob, which carries
// the sink's export. The caller must pass the same Config on every worker
// and on the coordinator, each with a sink and a trace log of its own.
func RunDistWorker(cfg Config, wenv dtime.WorkerEnv, opts DistWorkerOptions) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	wallStart := time.Now()
	if s := cfg.Metrics; s != nil {
		s.Manifest.Dist = &metrics.DistManifest{
			RunID: wenv.RunID, Workers: wenv.Workers, Role: "worker",
			Worker: wenv.Worker, Ranks: wenv.Ranks, Pid: os.Getpid(),
		}
		fillManifest(&s.Manifest, &cfg) // before Start opens the live stream with it
		s.Start(cfg.P)
	}
	speedup := rtime.Speedup(opts.Speedup)
	wrap, wireInj := wireFaults(&cfg, speedup, opts.WrapConn)
	nodes := 0
	for _, rank := range wenv.Ranks {
		if rank < cfg.P {
			nodes++
		}
	}
	// The codec's share is two ranks' worth: it keeps what it encodes and
	// decodes into what the nodes let go of.
	cfg.free = newRunFree(cfg.Problem.TrajLen(), nodes+2, cfg.poisonFree)
	return dtime.RunWorker(wenv, dtime.WorkerOptions{
		Codec:    Codec{free: cfg.free},
		Speedup:  speedup,
		WrapConn: wrap,
		ObsAddr:  opts.ObsAddr,
	}, func(pr runenv.PartialRunner) ([]byte, error) {
		bodies := make(map[int]runenv.Body, len(wenv.Ranks))
		outs := make([]*nodeOutcome, len(wenv.Ranks))
		wr := &workerResult{}
		for i, rank := range wenv.Ranks {
			if rank < cfg.P {
				bodies[rank] = nodeBody(&cfg, rank, &outs[i])
			} else {
				bodies[rank] = detectorBody(&cfg, &wr.detOut)
				wr.hasDet = true
			}
		}
		rcfg, inj := buildRunenvConfig(&cfg, wenv.Total, &wr.cause)
		// See Config.Cancel: the dist backend does not support it, and the
		// world the ranks run on would poll it.
		rcfg.Canceled = nil
		end := pr.RunRanks(rcfg, bodies)

		for i, rank := range wenv.Ranks {
			if rank >= cfg.P {
				continue
			}
			if outs[i] == nil {
				return nil, fmt.Errorf("engine: node %d produced no outcome", rank)
			}
			wr.ranks = append(wr.ranks, rank)
			wr.outcomes = append(wr.outcomes, outs[i])
		}
		if inj != nil {
			wr.stats = inj.Stats()
		}
		if wireInj != nil {
			wr.stats.Add(wireInj.Stats())
		}
		if s := cfg.Metrics; s != nil {
			// This worker's share of the outcome: its ranks' totals, and the
			// verdict as far as they and its world saw it.
			part := &Result{Time: end, FaultStats: wr.stats}
			for _, o := range wr.outcomes {
				part.tally(o)
			}
			part.decide(&cfg, wr.outcomes, nil, wr.cause)
			s.FinishRun(outcomeOf(&cfg, part, wallStart))
			var buf bytes.Buffer
			if err := s.WriteJSONL(&buf); err != nil {
				return nil, err
			}
			wr.telemetry = buf.Bytes()
		}
		if tl := cfg.Trace; tl != nil {
			wr.trace = &trace.ProcTrace{Speedup: speedup, Dropped: tl.Dropped(), Events: tl.Events()}
		}
		return encodeWorkerResult(wr), nil
	})
}
