// Command aiacrun executes one parallel iterative solve on a modeled
// platform and reports timing, iteration and load-balancing statistics.
//
// Examples:
//
//	aiacrun -mode aiac -p 8 -problem brusselator -n 64 -lb
//	aiacrun -mode sisc -p 4 -problem poisson -n 128 -tol 1e-10
//	aiacrun -mode aiac -p 15 -cluster grid15 -lb -trace
//	aiacrun -mode aiac -p 8 -lb -faults drop=0.05,dup=0.02,scope=lb -fault-seed 7
//	aiacrun -mode aiac -p 4 -backend dist -procs 4 -lb
//
// With -backend dist the solve spans worker OS processes: aiacrun re-execs
// itself once per worker (the hidden worker mode is selected by the
// AIAC_DTIME_WORKER environment variable), coordinates them over TCP, and
// assembles the same result a single-process run produces.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"aiac"
)

func main() {
	var (
		modeName    = flag.String("mode", "aiac", "solver mode: sisc, siac, aiac-general, aiac")
		p           = flag.Int("p", 4, "number of worker nodes")
		problemName = flag.String("problem", "brusselator", "problem: brusselator, heat, poisson, poisson2d, nldiffusion")
		n           = flag.Int("n", 64, "problem grid size (cells/points)")
		dt          = flag.Float64("dt", 0.02, "time step (evolution problems)")
		horizon     = flag.Float64("T", 1, "time horizon (evolution problems)")
		tol         = flag.Float64("tol", 1e-7, "local residual tolerance")
		maxIter     = flag.Int("maxiter", 200000, "per-node iteration bound")
		clusterName = flag.String("cluster", "homogeneous", "platform: homogeneous, heterogeneous, grid15")
		lb          = flag.Bool("lb", false, "enable decentralized load balancing")
		lbPeriod    = flag.Int("lb-period", 20, "iterations between balancing attempts")
		lbEstimator = flag.String("lb-estimator", "residual", "load estimator: residual, itertime, count")
		lbMinKeep   = flag.Int("lb-minkeep", 2, "famine guard: minimum components per node")
		seed        = flag.Int64("seed", 1, "random seed (platform + runtime)")
		faults      = flag.String("faults", "", "fault spec, e.g. drop=0.05,dup=0.02,reorder=0.01,spike=0.01,stall=0.001,scope=lb (scope: lb, boundary, or empty for the whole data plane)")
		faultSeed   = flag.Int64("fault-seed", 1, "fault-injection seed (replays the exact same faults)")
		ring        = flag.Bool("ring", false, "use decentralized ring convergence detection")
		gs          = flag.Bool("gs", false, "use local Gauss-Seidel sweeps (default: local Jacobi)")
		jsonOut     = flag.Bool("json", false, "print the result digest as JSON")
		real        = flag.Bool("real", false, "run on the real goroutine runtime instead of virtual time (alias of -backend rtime)")
		backendName = flag.String("backend", "", "execution backend: vtime (default), rtime, dist (multi-process over TCP)")
		procs       = flag.Int("procs", 2, "dist backend: number of worker OS processes")
		distRoot    = flag.String("dist-root", "", "dist backend: directory holding the per-run state directories (default: the system temp dir)")
		speedup     = flag.Float64("speedup", 50, "real/dist runtime: model seconds per wall second")
		showTrace   = flag.Bool("trace", false, "render an execution Gantt chart (see -trace-iters)")
		traceIters  = flag.Int("trace-iters", 12, "iterations covered by -trace (0 = all; trace exports default to all)")
		traceCSV    = flag.String("trace-csv", "", "write the causally-tagged execution trace to this CSV file")
		traceChrome = flag.String("trace-chrome", "", "write the trace as Chrome trace-event JSON (load in Perfetto or chrome://tracing)")
		critPath    = flag.Bool("critical-path", false, "print the convergence critical-path report (compute/idle/transit/LB attribution)")
		traceCap    = flag.Int("trace-cap", 0, "bound the in-memory trace to about this many events by self-thinning (0 = unbounded)")
		httpAddr    = flag.String("http", "", "serve the live observability plane (/metrics, /healthz, /debug/pprof/) on this address, e.g. :8080")
		httpLinger  = flag.Float64("http-linger", 0, "keep the -http server up this many wall seconds after the solve finishes")
		metricsOut  = flag.String("metrics", "", "write run telemetry (manifest + per-node series) to this JSONL file; render it with aiacreport")
		metricsPer  = flag.Float64("metrics-period", 0, "minimum virtual seconds between telemetry samples of a node (0 = every iteration)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the solve to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile (after the solve) to this file")
	)
	flag.Parse()

	cfg := aiac.Config{
		P:       *p,
		Tol:     *tol,
		MaxIter: *maxIter,
		Seed:    *seed,
	}

	switch strings.ToLower(*modeName) {
	case "sisc":
		cfg.Mode = aiac.SISC
	case "siac":
		cfg.Mode = aiac.SIAC
	case "aiac-general":
		cfg.Mode = aiac.AIACGeneral
	case "aiac":
		cfg.Mode = aiac.AIAC
	default:
		fatalf("unknown mode %q", *modeName)
	}

	switch strings.ToLower(*problemName) {
	case "brusselator":
		params := aiac.BrusselatorParams(*n, *dt)
		params.T = *horizon
		cfg.Problem = aiac.NewBrusselator(params)
	case "heat":
		params := aiac.HeatParams(*n, *dt)
		params.T = *horizon
		cfg.Problem = aiac.NewHeat(params)
	case "poisson":
		cfg.Problem = aiac.NewPoisson(aiac.PoissonParams{N: *n})
	case "poisson2d":
		cfg.Problem = aiac.NewPoisson2D(aiac.Poisson2DParams{N: *n})
	case "nldiffusion":
		cfg.Problem = aiac.NewNLDiffusion(aiac.NLDiffusionParams{N: *n, NewtonTol: 1e-12, MaxNewton: 40})
	default:
		fatalf("unknown problem %q", *problemName)
	}

	switch strings.ToLower(*clusterName) {
	case "homogeneous":
		cfg.Cluster = aiac.Homogeneous(*p)
	case "heterogeneous":
		cfg.Cluster = aiac.Heterogeneous(*p, 0.25, *seed)
	case "grid15":
		cfg.Cluster = aiac.HeteroGrid15(aiac.HeteroGridConfig{Seed: *seed, MultiUser: true})
		if *p > cfg.Cluster.P() {
			fatalf("grid15 has %d nodes, requested %d", cfg.Cluster.P(), *p)
		}
	default:
		fatalf("unknown cluster %q", *clusterName)
	}

	if *lb {
		pol := aiac.DefaultLBPolicy()
		pol.Period = *lbPeriod
		pol.MinKeep = *lbMinKeep
		switch strings.ToLower(*lbEstimator) {
		case "residual":
			pol.Estimator = aiac.EstimatorResidual
		case "itertime":
			pol.Estimator = aiac.EstimatorIterTime
		case "count":
			pol.Estimator = aiac.EstimatorCount
		default:
			fatalf("unknown estimator %q", *lbEstimator)
		}
		cfg.LB = pol
	}

	if *faults != "" {
		plan, scope, err := aiac.ParseFaultSpec(*faults)
		if err != nil {
			fatalf("%v", err)
		}
		plan.Seed = *faultSeed
		switch scope {
		case "":
		case "lb":
			plan.Kinds = aiac.FaultKindsLB()
		case "boundary":
			plan.Kinds = aiac.FaultKindsBoundary()
		default:
			fatalf("unknown fault scope %q (want lb or boundary)", scope)
		}
		cfg.Faults = &plan
	}

	if *ring {
		cfg.Detection = aiac.DetectRing
	}
	cfg.GaussSeidelLocal = *gs

	backend := strings.ToLower(*backendName)
	if backend == "" {
		backend = "vtime"
		if *real {
			backend = "rtime"
		}
	}
	switch backend {
	case "vtime":
	case "rtime":
		cfg.Runner = aiac.RealRunner(*speedup)
		cfg.MaxTime = 1e6
	case "dist":
		// Workers pace themselves like rtime; the watchdog bound keeps a
		// diverging distributed run from hanging forever.
		cfg.MaxTime = 1e6
	default:
		fatalf("unknown backend %q (want vtime, rtime or dist)", backend)
	}

	// setupTrace attaches a fresh trace log to cfg when any trace surface
	// was requested. Both halves of a dist run call it: every worker keeps
	// its own log (shipped to the coordinator at outcome time), and the
	// coordinator's log receives the federated stream.
	wantTrace := *showTrace || *traceCSV != "" || *traceChrome != "" || *critPath
	setupTrace := func(cfg *aiac.Config) *aiac.TraceLog {
		log := &aiac.TraceLog{}
		if *traceCap > 0 {
			log.SetCap(*traceCap)
		}
		cfg.Trace = log
		// The Gantt chart defaults to the first few iterations, but the trace
		// exports and the critical-path analysis need the whole run, so the
		// -trace-iters default only applies when just -trace asked for the log.
		iters := *traceIters
		if !*showTrace {
			iters = 0
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "trace-iters" {
					iters = *traceIters
				}
			})
		}
		cfg.TraceIters = iters
		return log
	}

	// Hidden worker mode: a dist coordinator re-execs this binary with the
	// worker identity in the environment. The flags above rebuilt the exact
	// Config the coordinator holds; everything past this point (tracing,
	// profiles, result printing) is coordinator business.
	if env := os.Getenv(aiac.DistEnvVar); env != "" {
		if wantTrace {
			setupTrace(&cfg)
		}
		runDistWorker(env, cfg, *speedup, *metricsOut != "", *httpAddr != "", func(sink *aiac.MetricsSink) {
			sink.Period = *metricsPer
			sink.Manifest.Name = "aiacrun"
			sink.Manifest.Problem = fmt.Sprintf("%s-%d", strings.ToLower(*problemName), *n)
			sink.Manifest.Cluster = strings.ToLower(*clusterName)
			if *faults != "" {
				sink.Manifest.FaultSpec = *faults
			}
		})
		return
	}

	// Graceful shutdown: the first SIGINT/SIGTERM raises the engine's
	// cancel flag, so the run winds down through the normal completion
	// path — telemetry flushed, manifest sealed with outcome "canceled" —
	// and aiacrun exits 130. A second signal gets the default handling
	// (immediate kill). The dist backend has no cancel plumbing; there the
	// default signal behavior stands.
	var interrupted atomic.Bool
	if backend != "dist" {
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			sig := <-sigc
			fmt.Fprintf(os.Stderr, "aiacrun: %v: canceling run (artifacts will be sealed; repeat to kill)\n", sig)
			interrupted.Store(true)
			signal.Stop(sigc)
		}()
		cfg.Cancel = interrupted.Load
	}

	var log *aiac.TraceLog
	if wantTrace {
		log = setupTrace(&cfg)
	}

	var sink *aiac.MetricsSink
	if *metricsOut != "" || *httpAddr != "" {
		sink = &aiac.MetricsSink{Period: *metricsPer}
		sink.Manifest.Name = "aiacrun"
		sink.Manifest.Problem = fmt.Sprintf("%s-%d", strings.ToLower(*problemName), *n)
		sink.Manifest.Cluster = strings.ToLower(*clusterName)
		if *faults != "" {
			sink.Manifest.FaultSpec = *faults
		}
		sink.Manifest.FillHost()
		cfg.Metrics = sink
	}

	var obsSrv *aiac.ObsServer
	if *httpAddr != "" {
		srv, err := aiac.ServeObs(*httpAddr, sink)
		if err != nil {
			fatalf("%v", err)
		}
		obsSrv = srv
		fmt.Fprintf(os.Stderr, "aiacrun: observability plane on http://%s (/metrics, /healthz, /debug/pprof/)\n", srv.Addr())
	}

	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("starting CPU profile: %v", err)
		}
		cpuFile = f
	}

	var res *aiac.Result
	var dinfo *aiac.DistRunInfo
	var err error
	if backend == "dist" {
		res, dinfo, err = aiac.SolveDist(cfg, aiac.DistOptions{
			Workers: *procs,
			Spawn:   aiac.DistSpawnCommand(os.Args),
			RunRoot: *distRoot,
			Speedup: *speedup,
		})
	} else {
		res, err = aiac.Solve(cfg)
	}

	if cpuFile != nil {
		pprof.StopCPUProfile()
		if cerr := cpuFile.Close(); cerr != nil {
			fatalf("closing %s: %v", *cpuProfile, cerr)
		}
	}
	if err != nil {
		if dinfo != nil && dinfo.RunDir != "" {
			fmt.Fprintf(os.Stderr, "aiacrun: worker logs under %s\n", dinfo.RunDir)
		}
		fatalf("%v", err)
	}
	if dinfo != nil {
		fmt.Fprintf(os.Stderr, "aiacrun: distributed run %s: %d worker processes, run dir %s\n",
			dinfo.RunID, len(dinfo.Workers), dinfo.RunDir)
		for _, w := range dinfo.Workers {
			extra := ""
			if w.ObsAddr != "" {
				extra = " obs http://" + w.ObsAddr
			}
			fmt.Fprintf(os.Stderr, "aiacrun:   worker %d pid %d ranks %v%s\n", w.Worker, w.Pid, w.Ranks, extra)
		}
	}

	if obsSrv != nil {
		if *httpLinger > 0 {
			fmt.Fprintf(os.Stderr, "aiacrun: solve done; observability plane lingers %.3g s\n", *httpLinger)
			time.Sleep(time.Duration(*httpLinger * float64(time.Second)))
		}
		if cerr := obsSrv.Close(2 * time.Second); cerr != nil {
			fmt.Fprintf(os.Stderr, "aiacrun: observability shutdown: %v\n", cerr)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatalf("%v", err)
		}
		runtime.GC() // settle the heap so the profile reflects retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("writing heap profile: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("closing %s: %v", *memProfile, err)
		}
	}

	if sink != nil && *metricsOut != "" {
		// A distributed run's telemetry lives in the workers; prefer the
		// coordinator's federated merge (written into the run directory by
		// SolveDist) over the coordinator's own sample-less sink.
		if dinfo != nil {
			fed := filepath.Join(dinfo.RunDir, "metrics.jsonl")
			if b, rerr := os.ReadFile(fed); rerr == nil {
				if werr := os.WriteFile(*metricsOut, b, 0o644); werr != nil {
					fatalf("%v", werr)
				}
				fmt.Fprintf(os.Stderr, "aiacrun: federated telemetry written to %s\n", *metricsOut)
				sink = nil
			}
		}
		if sink != nil {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fatalf("%v", err)
			}
			if err := sink.WriteJSONL(f); err != nil {
				fatalf("writing %s: %v", *metricsOut, err)
			}
			if err := f.Close(); err != nil {
				fatalf("closing %s: %v", *metricsOut, err)
			}
			fmt.Fprintf(os.Stderr, "aiacrun: telemetry written to %s\n", *metricsOut)
		}
	}

	if *traceCSV != "" {
		writeFileWith(*traceCSV, func(f *os.File) error { return aiac.WriteTraceCSV(log, f) })
		fmt.Fprintf(os.Stderr, "aiacrun: trace CSV written to %s\n", *traceCSV)
	}
	if *traceChrome != "" {
		writeFileWith(*traceChrome, func(f *os.File) error { return aiac.WriteChromeTrace(log, f) })
		fmt.Fprintf(os.Stderr, "aiacrun: Chrome trace written to %s (open in https://ui.perfetto.dev)\n", *traceChrome)
	}

	if *jsonOut {
		if err := res.WriteJSON(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		if *critPath {
			fmt.Fprint(os.Stderr, aiac.RenderCriticalPath(aiac.AnalyzeCriticalPath(log.Events()), 10))
		}
		exitFor(res)
		return
	}

	backendNote := ""
	if dinfo != nil {
		backendNote = fmt.Sprintf(", dist over %d processes", len(dinfo.Workers))
	}
	fmt.Printf("mode %s on %s (%d nodes), problem %s n=%d%s\n",
		cfg.Mode, *clusterName, *p, *problemName, *n, backendNote)
	fmt.Printf("  execution time   %.4f s (virtual)\n", res.Time)
	fmt.Printf("  converged        %v (max residual %.3g)\n", res.Converged, res.MaxResidual)
	if res.Canceled {
		fmt.Printf("  canceled         run stopped by signal; partial artifacts are sealed\n")
	}
	fmt.Printf("  node iterations  %v\n", res.NodeIters)
	fmt.Printf("  total work       %.3g units\n", res.TotalWork)
	fmt.Printf("  boundary msgs    %d (suppressed %d)\n", res.BoundaryMsgs, res.SuppressedSnd)
	if *lb {
		fmt.Printf("  lb transfers     %d accepted, %d rejected, %d components moved (%d retries)\n",
			res.LBTransfers, res.LBRejects, res.LBCompsMoved, res.LBRetries)
		fmt.Printf("  final counts     %v\n", res.FinalCount)
	}
	if *faults != "" {
		s := res.FaultStats
		fmt.Printf("  faults injected  %d dropped, %d duplicated, %d reordered, %d spiked, %d stalled, %d slowed (seed %d)\n",
			s.Dropped, s.Duplicated, s.Reordered, s.Spiked, s.Stalled, s.Slowed, *faultSeed)
	}
	if log != nil && *showTrace {
		fmt.Println()
		fmt.Print(aiac.Gantt(log, aiac.GanttConfig{Width: 110, Arrows: true}))
	}
	if *critPath {
		fmt.Println()
		fmt.Print(aiac.RenderCriticalPath(aiac.AnalyzeCriticalPath(log.Events()), 10))
	}
	exitFor(res)
}

// exitFor maps a canceled run to the conventional 128+SIGINT exit code,
// after every artifact has been flushed.
func exitFor(res *aiac.Result) {
	if res.Canceled {
		os.Exit(130)
	}
}

// runDistWorker is the hidden worker mode of the dist backend: decode the
// identity the coordinator put in the environment, join its run, solve the
// locally hosted ranks, and exit. cfg was rebuilt from the same flags the
// coordinator parsed, so every process holds an identical configuration.
// fillManifest applies the coordinator's manifest naming to this worker's
// sink so the sidecars and the /manifest endpoint describe the same run.
func runDistWorker(env string, cfg aiac.Config, speedup float64, exportMetrics, serveObs bool, fillManifest func(*aiac.MetricsSink)) {
	wenv, err := aiac.DecodeDistWorkerEnv(env)
	if err != nil {
		fatalf("%v", err)
	}
	opts := aiac.DistWorkerOptions{Speedup: speedup, ExportMetrics: exportMetrics}
	opts.WrapConn, opts.WireFaults = aiac.DistFaultConn(cfg, speedup)
	if exportMetrics || serveObs {
		sink := &aiac.MetricsSink{}
		fillManifest(sink)
		cfg.Metrics = sink
		if serveObs {
			// Each worker serves its own observability plane on an
			// ephemeral loopback port and reports the address to the
			// coordinator, which prints it in the run summary.
			srv, oerr := aiac.ServeObs("127.0.0.1:0", sink)
			if oerr != nil {
				fatalf("worker %d: %v", wenv.Worker, oerr)
			}
			opts.ObsAddr = srv.Addr()
			defer srv.Close(2 * time.Second)
		}
	}
	if err := aiac.SolveDistWorker(cfg, wenv, opts); err != nil {
		fatalf("worker %d: %v", wenv.Worker, err)
	}
}

// writeFileWith creates path and streams fn's output into it, failing hard
// on any error.
func writeFileWith(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := fn(f); err != nil {
		fatalf("writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fatalf("closing %s: %v", path, err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aiacrun: "+format+"\n", args...)
	os.Exit(1)
}
