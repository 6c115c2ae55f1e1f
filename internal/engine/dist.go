package engine

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
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
// assembles it in process. The second return is the coordinator's run
// record (run directory, worker identities, federated end time).
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
	wallStart := time.Now()
	if s := cfg.Metrics; s != nil {
		s.Start(cfg.P)
		fillManifest(&s.Manifest, &cfg)
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
	var stats fault.Stats
	sawDet := false
	for w, blob := range blobs {
		wr, err := decodeWorkerResult(blob)
		if err != nil {
			return nil, info, fmt.Errorf("engine: worker %d outcome: %w", w, err)
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
		stats.Add(wr.stats)
	}
	if cfg.useCentral() && !sawDet {
		return nil, info, fmt.Errorf("engine: no worker reported the detector outcome")
	}

	// A requested global stop with no successful halt is the distributed
	// MaxTime path: some worker's watchdog fired and stopped the world.
	timedOut := info.StopRequested && !(detOut.Halted && !detOut.Aborted)
	res, err := assembleResult(&cfg, outcomes, detOut, info.EndTime, timedOut, stats)
	if err != nil {
		return res, info, err
	}
	finishMetrics(&cfg, res, wallStart)
	if cfg.Trace != nil {
		if err := federateTrace(&cfg, opts, info, wireLog); err != nil {
			return res, info, fmt.Errorf("engine: federate trace: %w", err)
		}
	}
	if err := writeFederatedView(&cfg, res, info, wallStart); err != nil {
		return res, info, fmt.Errorf("engine: federate run view: %w", err)
	}
	return res, info, nil
}

// federateTrace merges the worker traces shipped over FrameTrace with the
// coordinator's wire log into cfg.Trace — the caller's log then reads as one
// global causal stream, so every single-process export path (CSV, Chrome,
// critical path) works on a distributed run unchanged — and writes the
// federated trace.csv into the run directory.
func federateTrace(cfg *Config, opts DistOptions, info *dtime.RunInfo, wireLog *trace.Log) error {
	workers := make([]trace.ProcTrace, 0, len(info.WorkerTraces))
	for _, pt := range info.WorkerTraces {
		workers = append(workers, *pt)
	}
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
	return cfg.Trace.WriteCSVFile(filepath.Join(info.RunDir, "trace.csv"))
}

// writeFederatedView writes the coordinator's view of the run into the run
// directory: manifest.json (the run manifest with the Dist section) and —
// when the workers exported telemetry sidecars — a merged metrics.jsonl
// that aiacreport renders like any single-process run.
func writeFederatedView(cfg *Config, res *Result, info *dtime.RunInfo, wallStart time.Time) error {
	var man metrics.Manifest
	if s := cfg.Metrics; s != nil {
		man = s.Manifest
	} else {
		fillManifest(&man, cfg)
		out := outcomeOf(cfg, res, wallStart)
		man.Outcome = &out
	}
	man.FillHost()
	man.Dist = &metrics.DistManifest{
		RunID: info.RunID, Workers: len(info.Workers), Role: "coordinator",
	}
	if err := man.WriteFile(filepath.Join(info.RunDir, "manifest.json")); err != nil {
		return err
	}

	var paths []string
	for _, w := range info.Workers {
		path := filepath.Join(w.StateDir, "metrics.jsonl")
		if _, err := os.Stat(path); err != nil {
			continue
		}
		paths = append(paths, path)
	}
	if len(paths) != len(info.Workers) {
		return nil // workers ran without telemetry export
	}
	merged, err := metrics.FederateRuns(paths)
	if err != nil {
		return err
	}
	merged.Manifest = man
	return merged.WriteFile(filepath.Join(info.RunDir, "metrics.jsonl"))
}

// DistWorkerOptions configures the worker-process half of a distributed
// run.
type DistWorkerOptions struct {
	// Speedup scales model time to wall time on this worker (default
	// rtime.DefaultSpeedup), matching rtime.Runner.Speedup.
	Speedup float64
	// WrapConn, when non-nil, wraps the coordinator connection — the seam
	// for the fault-injecting wrapper (fault.NewConn).
	WrapConn func(net.Conn) net.Conn
	// ObsAddr is this worker's /metrics listen address, reported to the
	// coordinator (empty = no observability plane).
	ObsAddr string
	// ExportMetrics writes a metrics.jsonl telemetry sidecar next to the
	// manifest.json in the worker's state directory (requires cfg.Metrics).
	ExportMetrics bool
	// WireFaults is the injector behind WrapConn (second return of
	// DistFaultConn); its counters are folded into the reported outcome so
	// wire faults show up in the coordinator's Result.FaultStats.
	WireFaults *fault.Injector
}

// DistFaultConn returns the WrapConn for a worker of a faulted run: the
// frames it writes to the coordinator face cfg.Faults as real packet loss,
// duplication, and delay on the wire, scoped exactly like the in-process
// hook (data plane only, unless the plan names kinds). Each directed
// remote link is faulted only here — the worker's rtime.World skips FaultHook
// for remote sends — so the per-link decision streams stay disjoint from
// the local ones. speedup must match DistWorkerOptions.Speedup (0 = the
// worker default). The returned injector carries the wire-fault counters;
// pass it as DistWorkerOptions.WireFaults so they reach the coordinator's
// Result. Both returns are nil when no faults are active.
func DistFaultConn(cfg Config, speedup float64) (func(net.Conn) net.Conn, *fault.Injector) {
	if cfg.Faults == nil || cfg.Faults.Zero() {
		return nil, nil
	}
	cfg = cfg.withDefaults()
	speedup = rtime.Speedup(speedup)
	inj := cfg.Faults.MustCompile(cfg.P + 1)
	dataOnly := cfg.Faults.Kinds == nil
	ser := grid.NewSerializer(cfg.Cluster)
	var serMu sync.Mutex
	wrap := func(inner net.Conn) net.Conn {
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
				if !ok || (dataOnly && kind >= runenv.ControlKindBase) {
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
	}
	return wrap, inj
}

// RunDistWorker executes this process's share of a distributed run: it
// joins the coordinator named by wenv, runs the locally hosted ranks with
// the exact same bodies and runtime hooks Run would use, reports the
// outcome blob, and writes its state-directory sidecars. The caller must
// pass the same Config on every worker and on the coordinator.
func RunDistWorker(cfg Config, wenv dtime.WorkerEnv, opts DistWorkerOptions) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	if s := cfg.Metrics; s != nil {
		s.Start(cfg.P)
		fillManifest(&s.Manifest, &cfg)
	}
	return dtime.RunWorker(wenv, dtime.WorkerOptions{
		Codec:    Codec{},
		Speedup:  opts.Speedup,
		WrapConn: opts.WrapConn,
		ObsAddr:  opts.ObsAddr,
		Trace:    cfg.Trace,
	}, func(pr runenv.PartialRunner) ([]byte, error) {
		bodies := make(map[int]runenv.Body, len(wenv.Ranks))
		outs := make([]*nodeOutcome, len(wenv.Ranks))
		var detOut detect.Outcome
		hasDet := false
		for i, rank := range wenv.Ranks {
			if rank < cfg.P {
				bodies[rank] = nodeBody(&cfg, rank, &outs[i])
			} else {
				bodies[rank] = detectorBody(&cfg, &detOut)
				hasDet = true
			}
		}
		rcfg, inj := buildRunenvConfig(&cfg, wenv.Total)
		// See Config.Cancel: the dist backend does not support it, and the
		// world the ranks run on would poll it.
		rcfg.Canceled = nil
		pr.RunRanks(rcfg, bodies)

		wr := &workerResult{hasDet: hasDet, detOut: detOut}
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
		if wi := opts.WireFaults; wi != nil {
			wr.stats.Add(wi.Stats())
		}
		if err := writeWorkerSidecars(&cfg, wenv, opts); err != nil {
			return nil, err
		}
		return encodeWorkerResult(wr), nil
	})
}

// writeWorkerSidecars leaves the worker's state directory self-describing:
// a manifest.json identifying the run and this worker's share of it, and —
// when telemetry export is on — its metrics.jsonl series.
func writeWorkerSidecars(cfg *Config, wenv dtime.WorkerEnv, opts DistWorkerOptions) error {
	var man metrics.Manifest
	if s := cfg.Metrics; s != nil {
		man = s.Manifest
	} else {
		fillManifest(&man, cfg)
	}
	man.FillHost()
	man.Dist = &metrics.DistManifest{
		RunID: wenv.RunID, Workers: wenv.Workers, Role: "worker",
		Worker: wenv.Worker, Ranks: wenv.Ranks, Pid: os.Getpid(),
	}
	if err := man.WriteFile(filepath.Join(wenv.StateDir, "manifest.json")); err != nil {
		return err
	}
	if t := cfg.Trace; t != nil {
		// The worker-local causal log, on this worker's own clock — a
		// debugging artifact; the coordinator writes the federated view.
		if err := t.WriteCSVFile(filepath.Join(wenv.StateDir, "trace.csv")); err != nil {
			return err
		}
	}
	if s := cfg.Metrics; s != nil && opts.ExportMetrics {
		s.Manifest.Dist = man.Dist
		return s.Snapshot().WriteFile(filepath.Join(wenv.StateDir, "metrics.jsonl"))
	}
	return nil
}
