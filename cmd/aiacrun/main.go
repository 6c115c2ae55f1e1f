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
// The flags that describe the run are a view of one aiac.RunSpec — the same
// description POST /runs takes as JSON — and RunSpec.BuildConfig turns it
// into the solver configuration; the defaults -h shows are the spec's, and a
// zero (-seed 0, -p 0, ...) means "the default" as it does in a JSON spec.
// Everything else here is output: where the artifacts go and what is printed.
//
// The exit code says how the run ended, once every artifact is written: 0
// converged, 3 stopped without converging (the -maxiter bound or the
// backend's watchdog), 130 canceled by SIGINT/SIGTERM, 1 an error (bad
// input, a failed backend), 2 a flag that does not parse.
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
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"aiac"
)

// bindSpec registers the run-describing flags straight onto the fields of
// sp. A flag's default is its field's value at the call, so binding a
// WithDefaults spec makes -h show the spec's defaults: they are written once.
func bindSpec(fs *flag.FlagSet, sp *aiac.RunSpec) {
	fs.StringVar(&sp.Mode, "mode", sp.Mode, "solver mode: sisc, siac, aiac-general, aiac")
	fs.IntVar(&sp.P, "p", sp.P, "number of worker nodes")
	fs.StringVar(&sp.Problem, "problem", sp.Problem, "problem: brusselator, heat, poisson, poisson2d, nldiffusion")
	fs.IntVar(&sp.N, "n", sp.N, "problem grid size (cells/points)")
	fs.Float64Var(&sp.Dt, "dt", sp.Dt, "time step (evolution problems)")
	fs.Float64Var(&sp.T, "T", sp.T, "time horizon (evolution problems)")
	fs.Float64Var(&sp.Tol, "tol", sp.Tol, "local residual tolerance")
	fs.IntVar(&sp.MaxIter, "maxiter", sp.MaxIter, "per-node iteration bound")
	fs.StringVar(&sp.Cluster, "cluster", sp.Cluster, "platform: homogeneous, heterogeneous, grid15")
	fs.BoolVar(&sp.LB, "lb", sp.LB, "enable decentralized load balancing")
	fs.IntVar(&sp.LBPeriod, "lb-period", sp.LBPeriod, "iterations between balancing attempts")
	fs.StringVar(&sp.LBEstimator, "lb-estimator", sp.LBEstimator, "load estimator: residual, itertime, count")
	fs.IntVar(&sp.LBMinKeep, "lb-minkeep", sp.LBMinKeep, "famine guard: minimum components per node")
	fs.Int64Var(&sp.Seed, "seed", sp.Seed, "platform seed: the heterogeneous and grid15 node speeds and loads (0 = the default)")
	fs.StringVar(&sp.Faults, "faults", sp.Faults, "fault spec, e.g. drop=0.05,dup=0.02,reorder=0.01,spike=0.01,stall=0.001,scope=lb (scope: lb, boundary, or empty for the whole data plane)")
	fs.Int64Var(&sp.FaultSeed, "fault-seed", sp.FaultSeed, "fault-injection seed (replays the exact same faults; 0 = the default)")
	fs.BoolVar(&sp.Ring, "ring", sp.Ring, "use decentralized ring convergence detection")
	fs.BoolVar(&sp.GaussSeidel, "gs", sp.GaussSeidel, "use local Gauss-Seidel sweeps (default: local Jacobi)")
	fs.StringVar(&sp.Backend, "backend", sp.Backend, "execution backend: vtime, rtime (real goroutines and timers), dist (multi-process over TCP)")
	fs.Float64Var(&sp.Speedup, "speedup", sp.Speedup, "rtime/dist backends: model seconds per wall second (0 = the default)")
	fs.IntVar(&sp.TraceCap, "trace-cap", sp.TraceCap, "bound the in-memory trace to about this many events by self-thinning (0 = unbounded)")
	fs.Float64Var(&sp.MetricsPeriod, "metrics-period", sp.MetricsPeriod, "minimum virtual seconds between telemetry samples of a node (0 = every iteration)")
}

func main() {
	spec := aiac.RunSpec{Name: "aiacrun"}.WithDefaults()
	bindSpec(flag.CommandLine, &spec)
	var (
		jsonOut     = flag.Bool("json", false, "print the result digest as JSON")
		procs       = flag.Int("procs", 2, "dist backend: number of worker OS processes")
		distRoot    = flag.String("dist-root", "", "dist backend: directory holding the per-run state directories (default: the system temp dir)")
		showTrace   = flag.Bool("trace", false, "render an execution Gantt chart (see -trace-iters)")
		traceIters  = flag.Int("trace-iters", 12, "iterations covered by -trace (0 = all; trace exports default to all)")
		traceCSV    = flag.String("trace-csv", "", "write the causally-tagged execution trace to this CSV file")
		traceChrome = flag.String("trace-chrome", "", "write the trace as Chrome trace-event JSON (load in Perfetto or chrome://tracing)")
		critPath    = flag.Bool("critical-path", false, "print the convergence critical-path report (compute/idle/transit/LB attribution)")
		httpAddr    = flag.String("http", "", "serve the live observability plane (/metrics, /healthz, /debug/pprof/) on this address, e.g. :8080")
		httpLinger  = flag.Float64("http-linger", 0, "keep the -http server up this many wall seconds after the solve finishes")
		metricsOut  = flag.String("metrics", "", "write run telemetry (manifest + per-node series) to this JSONL file; render it with aiacreport")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the solve to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile (after the solve) to this file")
	)
	flag.Parse()

	// Any trace surface asks for the log. Both halves of a dist run get one:
	// every worker keeps its own (shipped to the coordinator at outcome
	// time), and the coordinator's receives the federated stream.
	spec.Trace = *showTrace || *traceCSV != "" || *traceChrome != "" || *critPath
	spec = spec.WithDefaults()
	cfg, err := spec.BuildConfig()
	if err != nil {
		fatalf("%v", err)
	}
	log := cfg.Trace
	// The Gantt chart defaults to the first few iterations, but the trace
	// exports and the critical-path analysis need the whole run, so the
	// -trace-iters default only applies when -trace asked for the log.
	itersGiven := false
	flag.Visit(func(f *flag.Flag) { itersGiven = itersGiven || f.Name == "trace-iters" })
	if *showTrace || itersGiven {
		cfg.TraceIters = *traceIters
	}
	// BuildConfig hands back a sink that names the run; it stays attached
	// only when something will read it.
	if *metricsOut == "" && *httpAddr == "" {
		cfg.Metrics = nil
	}
	dist := strings.EqualFold(spec.Backend, "dist")

	// Hidden worker mode: a dist coordinator re-execs this binary with the
	// worker identity in the environment. The flags above rebuilt the exact
	// Config the coordinator holds; everything past this point (signals,
	// profiles, result printing) is coordinator business.
	if env := os.Getenv(aiac.DistEnvVar); env != "" {
		runDistWorker(env, cfg, spec.Speedup, *httpAddr != "")
		return
	}

	// Graceful shutdown: the first SIGINT/SIGTERM raises the engine's
	// cancel flag, so the run winds down through the normal completion
	// path — telemetry flushed, manifest sealed with outcome "canceled" —
	// and aiacrun exits 130. A second signal gets the default handling
	// (immediate kill). The dist backend has no cancel plumbing; there the
	// default signal behavior stands.
	var interrupted atomic.Bool
	if !dist {
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

	sink := cfg.Metrics

	var obsSrv *aiac.ObsServer
	if *httpAddr != "" {
		srv, err := aiac.ServeObs(*httpAddr, sink)
		if err != nil {
			fatalf("%v", err)
		}
		obsSrv = srv
		fmt.Fprintf(os.Stderr, "aiacrun: observability plane on http://%s (/metrics, /healthz, /debug/pprof/)\n", srv.Addr())
	}

	var res *aiac.Result
	var dinfo *aiac.DistRunInfo
	solve := func() {
		if dist {
			res, dinfo, err = aiac.SolveDist(cfg, aiac.DistOptions{
				Workers: *procs,
				Spawn:   aiac.DistSpawnCommand(os.Args),
				RunRoot: *distRoot,
				Speedup: spec.Speedup,
			})
		} else {
			res, err = aiac.Solve(cfg)
		}
	}
	if *cpuProfile != "" {
		writeFileWith(*cpuProfile, func(f *os.File) error {
			if err := pprof.StartCPUProfile(f); err != nil {
				return err
			}
			defer pprof.StopCPUProfile()
			solve()
			return nil
		})
	} else {
		solve()
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
		writeFileWith(*memProfile, func(f *os.File) error {
			runtime.GC() // settle the heap so the profile reflects retained memory
			return pprof.WriteHeapProfile(f)
		})
	}

	if sink != nil && *metricsOut != "" {
		if err := sink.Snapshot().WriteFile(*metricsOut); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "aiacrun: telemetry written to %s\n", *metricsOut)
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
		cfg.Mode, spec.Cluster, spec.P, spec.Problem, spec.N, backendNote)
	fmt.Printf("  execution time   %.4f s (virtual)\n", res.Time)
	fmt.Printf("  converged        %v (max residual %.3g)\n", res.Converged, res.MaxResidual)
	if res.Canceled {
		fmt.Printf("  canceled         run stopped by signal; partial artifacts are sealed\n")
	}
	fmt.Printf("  node iterations  %v\n", res.NodeIters)
	fmt.Printf("  total work       %.3g units\n", res.TotalWork)
	fmt.Printf("  boundary msgs    %d (suppressed %d)\n", res.BoundaryMsgs, res.SuppressedSnd)
	if spec.LB {
		fmt.Printf("  lb transfers     %d accepted, %d rejected, %d components moved (%d retries)\n",
			res.LBTransfers, res.LBRejects, res.LBCompsMoved, res.LBRetries)
		fmt.Printf("  final counts     %v\n", res.FinalCount)
	}
	if spec.Faults != "" {
		s := res.FaultStats
		fmt.Printf("  faults injected  %d dropped, %d duplicated, %d reordered, %d spiked, %d stalled, %d slowed (seed %d)\n",
			s.Dropped, s.Duplicated, s.Reordered, s.Spiked, s.Stalled, s.Slowed, spec.FaultSeed)
	}
	if log != nil && *showTrace {
		fmt.Println()
		fmt.Print(aiac.Gantt(log, aiac.GanttConfig{Width: 110}))
	}
	if *critPath {
		fmt.Println()
		fmt.Print(aiac.RenderCriticalPath(aiac.AnalyzeCriticalPath(log.Events()), 10))
	}
	exitFor(res)
}

// exitFor ends the process with the run's outcome, after every artifact has
// been flushed: 130 (the conventional 128+SIGINT) for a canceled run, 3 for
// one that stopped without converging, 0 for a converged one.
func exitFor(res *aiac.Result) {
	switch {
	case res.Canceled:
		os.Exit(130)
	case !res.Converged:
		os.Exit(3)
	}
}

// runDistWorker is the hidden worker mode of the dist backend: decode the
// identity the coordinator put in the environment, join its run, solve the
// locally hosted ranks, and exit. cfg was rebuilt from the same flags the
// coordinator parsed, so every process holds an identical configuration —
// its sink included, whose manifest names the run as the coordinator's does,
// so the telemetry it ships and the /manifest endpoint describe the same run.
func runDistWorker(env string, cfg aiac.Config, speedup float64, serveObs bool) {
	wenv, err := aiac.DecodeDistWorkerEnv(env)
	if err != nil {
		fatalf("%v", err)
	}
	opts := aiac.DistWorkerOptions{Speedup: speedup}
	if serveObs {
		// Each worker serves its own observability plane on an ephemeral
		// loopback port and reports the address to the coordinator, which
		// prints it in the run summary.
		srv, oerr := aiac.ServeObs("127.0.0.1:0", cfg.Metrics)
		if oerr != nil {
			fatalf("worker %d: %v", wenv.Worker, oerr)
		}
		opts.ObsAddr = srv.Addr()
		defer srv.Close(2 * time.Second)
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
