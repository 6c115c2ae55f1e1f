// Package aiac is a library for asynchronous parallel iterative algorithms
// with decentralized dynamic load balancing — a from-scratch Go reproduction
// of Bahi, Contassot-Vivier & Couturier, "Coupling Dynamic Load Balancing
// with Asynchronism in Iterative Algorithms on the Computational Grid"
// (IPDPS 2003).
//
// The library lets you:
//
//   - define a block-decomposable fixed-point problem (Problem) — nonlinear
//     waveform relaxations like the bundled Brusselator, linear evolutions
//     like the bundled heat equation, or stationary solves like the bundled
//     Poisson/Jacobi problem (examples/linsys implements one from scratch);
//   - run it with any of the paper's three solver classes — SISC
//     (synchronous iterations and communications), SIAC (synchronous
//     iterations, asynchronous communications), and AIAC (fully
//     asynchronous, in the general and mutual-exclusion variants);
//   - couple the AIAC solvers with the paper's decentralized
//     Bertsekas-Tsitsiklis load balancing (residual-driven, lightest
//     neighbor, famine-guarded);
//   - execute on a modeled platform (heterogeneous node speeds, multi-user
//     background load, per-link latency/bandwidth with serialization)
//     under a deterministic virtual-time runtime, with real goroutine
//     concurrency, or across worker OS processes (SolveDist).
//
// Quick start:
//
//	prob := aiac.NewBrusselator(aiac.BrusselatorParams(32, 0.05))
//	res, err := aiac.Solve(aiac.Config{
//		Mode:    aiac.AIAC,
//		P:       4,
//		Problem: prob,
//		Cluster: aiac.Homogeneous(4),
//		Tol:     1e-7,
//		MaxIter: 100000,
//		LB:      aiac.DefaultLBPolicy(),
//	})
//
// RunSpec is the declarative front door: the knobs this package does not
// name — fault plans, the real-time backend, the load estimator, ring
// detection, the telemetry sink — are RunSpec fields, and RunSpec.BuildConfig
// turns a spec into a ready-to-run Config (aiacrun's flags and the service's
// POST /runs body both fill one).
//
// See the examples/ directory for complete programs and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology and results.
package aiac

import (
	"io"

	"aiac/internal/brusselator"
	"aiac/internal/dtime"
	"aiac/internal/engine"
	"aiac/internal/grid"
	"aiac/internal/heat"
	"aiac/internal/iterative"
	"aiac/internal/loadbalance"
	"aiac/internal/metrics"
	"aiac/internal/obs"
	"aiac/internal/poisson"
	"aiac/internal/poisson2d"
	"aiac/internal/report"
	"aiac/internal/trace"
)

// Problem is a block-decomposable fixed-point problem over component
// trajectories; see the bundled constructors or implement your own.
type Problem = iterative.Problem

// Mode selects the parallel iterative algorithm class of the paper's §1.2.
type Mode = engine.Mode

// Solver modes.
const (
	// SISC: synchronous iterations, synchronous communications.
	SISC = engine.SISC
	// SIAC: synchronous iterations, asynchronous communications.
	SIAC = engine.SIAC
	// AIACGeneral: asynchronous iterations and communications (Figure 3).
	AIACGeneral = engine.AIACGeneral
	// AIAC: the paper's mutual-exclusion variant (Figure 4) — the one the
	// load balancing couples to.
	AIAC = engine.AIAC
)

// Config describes one solver execution; see engine.Config for the full
// field documentation.
type Config = engine.Config

// Result is a completed solver execution.
type Result = engine.Result

// Solve runs the configured solver and returns its result.
func Solve(cfg Config) (*Result, error) { return engine.Run(cfg) }

// Cluster models the execution platform: node speeds, sites, links and
// background load.
type Cluster = grid.Cluster

// Link describes a communication link (latency + bandwidth).
type Link = grid.Link

// Homogeneous builds a local cluster of p identical machines.
func Homogeneous(p int) *Cluster { return grid.Homogeneous(p) }

// Heterogeneous builds a p-node cluster with speed factors spread in
// [minFactor, 1], deterministic in seed.
func Heterogeneous(p int, minFactor float64, seed int64) *Cluster {
	return grid.Heterogeneous(p, minFactor, seed)
}

// HeteroGridConfig parameterizes the paper's 3-site heterogeneous platform.
type HeteroGridConfig = grid.HeteroGridConfig

// HeteroGrid15 builds the paper's Table-1 platform: 15 machines over three
// sites with heterogeneous speeds and optional multi-user load.
func HeteroGrid15(cfg HeteroGridConfig) *Cluster { return grid.HeteroGrid15(cfg) }

// DefaultLBPolicy returns the paper's balancing configuration (enabled,
// period 20, residual estimator).
func DefaultLBPolicy() loadbalance.Policy { return loadbalance.DefaultPolicy() }

// DetectRing selects the decentralized Safra-style token protocol for
// Config.Detection instead of the central verification detector.
const DetectRing = engine.DetectRing

// MetricsSink collects a run's telemetry when assigned to Config.Metrics:
// per-node samples (time, iteration, residual, owned components, work),
// timeline events and the run manifest. Samples(rank) returns one node's
// series; a Cap above the run's iteration count keeps every sweep.
type MetricsSink = metrics.Sink

// BrusselatorParams returns the paper's Brusselator configuration (§4) for
// a grid of n cells and implicit-Euler step dt: α = 1/50, T = 10.
func BrusselatorParams(n int, dt float64) brusselator.Params {
	return brusselator.DefaultParams(n, dt)
}

// NewBrusselator builds the paper's test problem as a waveform-relaxation
// Problem. Cell k's trajectory interleaves (u, v) over time.
func NewBrusselator(p brusselator.Params) *brusselator.Problem { return brusselator.New(p) }

// BrusselatorReference integrates the full Brusselator system sequentially
// (implicit Euler + banded Newton) as a validation reference.
func BrusselatorReference(p brusselator.Params) (traj [][]float64, newtonIters int, err error) {
	return brusselator.Reference(p)
}

// HeatParams returns a 1-D heat equation configuration.
func HeatParams(n int, dt float64) heat.Params { return heat.DefaultParams(n, dt) }

// NewHeat builds the linear heat-equation waveform Problem.
func NewHeat(p heat.Params) *heat.Problem { return heat.New(p) }

// PoissonParams configures the Poisson problem.
type PoissonParams = poisson.Params

// NewPoisson builds the stationary Poisson/Jacobi Problem (trajectories of
// length 1 — the classic asynchronous fixed-point iteration).
func NewPoisson(p PoissonParams) *poisson.Problem { return poisson.New(p) }

// Poisson2DParams configures the 2-D Poisson problem.
type Poisson2DParams = poisson2d.Params

// NewPoisson2D builds the 2-D Poisson problem with row-block decomposition
// (component = grid row, halo = one row).
func NewPoisson2D(p Poisson2DParams) *poisson2d.Problem { return poisson2d.New(p) }

// TraceLog collects execution events for Gantt rendering; assign one to
// Config.Trace.
type TraceLog = trace.Log

// GanttConfig controls ASCII Gantt rendering of a trace.
type GanttConfig = trace.GanttConfig

// Gantt renders a collected trace as an ASCII Gantt chart in the style of
// the paper's Figures 1-4.
func Gantt(l *TraceLog, cfg GanttConfig) string { return trace.Gantt(l, cfg) }

// WriteTraceCSV exports a trace in the stable CSV schema (12 columns with
// the causal fields and the process index; see internal/trace.WriteCSV).
func WriteTraceCSV(l *TraceLog, w io.Writer) error { return l.WriteCSV(w) }

// WriteChromeTrace exports a trace in the Chrome trace-event JSON format,
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// Messages become flow arrows between node tracks; a federated distributed
// trace renders one Chrome process per OS process, with flow arrows crossing
// process tracks wherever a message crossed the wire.
func WriteChromeTrace(l *TraceLog, w io.Writer) error { return trace.WriteChrome(l, w) }

// AnalyzeCriticalPath extracts a run's convergence critical path from its
// trace events: the happens-before chain of compute spans, message transits
// and LB transfers that ends at the halt decision.
func AnalyzeCriticalPath(events []trace.Event) *trace.CriticalPath { return trace.Analyze(events) }

// RenderCriticalPath formats a critical-path analysis as the aiacreport
// "critical path" section: summary, per-node blame table, top segments and
// the on-path/off-path LB transfer classification.
func RenderCriticalPath(cp *trace.CriticalPath, topN int) string {
	return report.CriticalPath(cp, topN)
}

// DistOptions configures a distributed multi-process run for SolveDist:
// worker count, the spawn callback (DistSpawnCommand for real OS
// processes), run identity/root and coordinator supervision bounds.
type DistOptions = engine.DistOptions

// DistWorkerOptions configures the worker-process half of a distributed
// run for SolveDistWorker.
type DistWorkerOptions = engine.DistWorkerOptions

// DistWorkerEnv identifies one worker's share of a distributed run: the
// coordinator address, run/state directories and hosted ranks. It travels
// to spawned workers in the DistEnvVar environment variable.
type DistWorkerEnv = dtime.WorkerEnv

// DistRunInfo is the coordinator's record of a distributed run: run id and
// directory, worker identities, and the federated end time.
type DistRunInfo = dtime.RunInfo

// DistEnvVar is the environment variable carrying the encoded
// DistWorkerEnv to a spawned worker process. A binary that finds it set
// should decode it with DecodeDistWorkerEnv and call SolveDistWorker
// instead of running its normal path (cmd/aiacrun does exactly this).
const DistEnvVar = dtime.EnvVar

// SolveDist runs the configured solver across worker OS processes — node
// groups exchanging halo, load-balancing and detection messages over TCP —
// and assembles the same global Result Solve produces in process; the
// workers' telemetry and traces come back with their outcomes, so cfg.Metrics
// and cfg.Trace then hold the whole run, as after Solve. A worker that
// crashes or goes silent fails the run with a *dtime.WorkerError.
func SolveDist(cfg Config, opts DistOptions) (*Result, *DistRunInfo, error) {
	return engine.RunDist(cfg, opts)
}

// SolveDistWorker executes this process's share of a distributed run; the
// Config must match the coordinator's on every worker, each with a sink and
// a trace log of its own.
func SolveDistWorker(cfg Config, wenv DistWorkerEnv, opts DistWorkerOptions) error {
	return engine.RunDistWorker(cfg, wenv, opts)
}

// DecodeDistWorkerEnv decodes the DistEnvVar value of a worker process.
func DecodeDistWorkerEnv(s string) (DistWorkerEnv, error) { return dtime.DecodeWorkerEnv(s) }

// DistSpawnCommand returns a DistOptions.Spawn callback launching argv as
// each worker process, with the worker's DistWorkerEnv in DistEnvVar and
// its combined output captured as worker.log in its state directory. Pass
// os.Args to re-exec the current binary.
func DistSpawnCommand(argv []string) func(DistWorkerEnv) (dtime.Process, error) {
	return dtime.SpawnCommand(argv)
}

// ObsServer is the live observability HTTP server: /metrics (Prometheus
// text), /healthz (run phase + current max residual), /manifest (the run
// manifest as JSON) and /debug/pprof/*.
type ObsServer = obs.Server

// ServeObs starts an ObsServer for a run's telemetry sink (the Config.Metrics
// RunSpec.BuildConfig attaches) on addr, e.g. ":8080"; close it with Close
// when the run ends.
func ServeObs(addr string, sink *metrics.Sink) (*ObsServer, error) { return obs.Serve(addr, sink) }

// Service is the solver-as-a-service control plane: a durable run registry
// plus a per-tenant fair-queuing scheduler behind an HTTP API (POST /runs,
// GET /runs, GET/DELETE /runs/{id}, GET /runs/{id}/events SSE dashboards).
type Service = obs.Service

// ServiceConfig configures NewService. RunSpec describes one run — the POST
// /runs body, and what aiacrun's flags fill; RunSpec.BuildConfig is the only
// translation of one into a Config.
type ServiceConfig = obs.ServiceConfig
type RunSpec = obs.RunSpec
type SchedulerConfig = obs.SchedulerConfig

// NewService opens the run registry under cfg.Root (completed runs of a
// previous process are recovered on first use) and starts the solver pool.
func NewService(cfg ServiceConfig) (*Service, error) { return obs.NewService(cfg) }

// ServeService serves a Service's control-plane API on addr; the listener
// is bound before it returns, so the address is immediately probeable.
func ServeService(addr string, svc *Service) (*ObsServer, error) {
	return obs.ServeService(addr, svc)
}
