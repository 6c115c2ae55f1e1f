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
//     Poisson/Jacobi problem;
//   - run it with any of the paper's three solver classes — SISC
//     (synchronous iterations and communications), SIAC (synchronous
//     iterations, asynchronous communications), and AIAC (fully
//     asynchronous, in the general and mutual-exclusion variants);
//   - couple the AIAC solvers with the paper's decentralized
//     Bertsekas-Tsitsiklis load balancing (residual-driven, lightest
//     neighbor, famine-guarded);
//   - execute on a modeled platform (heterogeneous node speeds, multi-user
//     background load, per-link latency/bandwidth with serialization)
//     under a deterministic virtual-time runtime, or with real goroutine
//     concurrency.
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
// See the examples/ directory for complete programs and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology and results.
package aiac

import (
	"io"
	"net"

	"aiac/internal/brusselator"
	"aiac/internal/dtime"
	"aiac/internal/engine"
	"aiac/internal/fault"
	"aiac/internal/grid"
	"aiac/internal/heat"
	"aiac/internal/iterative"
	"aiac/internal/linsys"
	"aiac/internal/loadbalance"
	"aiac/internal/metrics"
	"aiac/internal/nldiffusion"
	"aiac/internal/obs"
	"aiac/internal/poisson"
	"aiac/internal/poisson2d"
	"aiac/internal/report"
	"aiac/internal/rtime"
	"aiac/internal/runenv"
	"aiac/internal/sparse"
	"aiac/internal/trace"
	"aiac/internal/vtime"
	"aiac/internal/windowing"
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

// LoadTrace is a piecewise-constant background-load profile.
type LoadTrace = grid.LoadTrace

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

// LBPolicy is the decentralized load-balancing policy (Bertsekas-Tsitsiklis
// lightest-neighbor with the paper's knobs).
type LBPolicy = loadbalance.Policy

// LBEstimator selects the load measure.
type LBEstimator = loadbalance.Estimator

// Load estimators.
const (
	// EstimatorResidual is the paper's choice: the local residual.
	EstimatorResidual = loadbalance.EstimatorResidual
	// EstimatorIterTime uses the duration of the last iteration.
	EstimatorIterTime = loadbalance.EstimatorIterTime
	// EstimatorCount uses the number of local components.
	EstimatorCount = loadbalance.EstimatorCount
)

// DefaultLBPolicy returns the paper's balancing configuration (enabled,
// period 20, residual estimator).
func DefaultLBPolicy() LBPolicy { return loadbalance.DefaultPolicy() }

// FaultPlan is a seeded, fully deterministic fault-injection plan for the
// simulated grid; assign one to Config.Faults. Every fault decision is a
// pure hash of (seed, link/node, per-target counter), so a run is exactly
// replayable from the plan alone.
type FaultPlan = fault.Plan

// FaultRates holds per-message fault probabilities for a FaultPlan.
type FaultRates = fault.Rates

// FaultStats counts the faults an injector actually fired during a run;
// see Result.FaultStats.
type FaultStats = fault.Stats

// FaultBadTargetError is the typed error Solve returns when a FaultPlan
// names a node or link outside the configured world.
type FaultBadTargetError = fault.BadTargetError

// OwnershipLog records component-ownership transitions for invariant
// checking; assign one to Config.OwnershipLog and feed it to
// CheckOwnership after the run.
type OwnershipLog = fault.OwnershipLog

// CheckOwnership replays an ownership log and verifies that every
// component was owned by exactly one node at all times, including
// mid-migration under message loss.
func CheckOwnership(log *OwnershipLog, components int) error {
	return fault.CheckOwnership(log, components)
}

// ParseFaultSpec parses a "drop=0.05,dup=0.02,scope=lb"-style flag value
// into a FaultPlan plus the requested scope ("", "lb" or "boundary").
func ParseFaultSpec(spec string) (FaultPlan, string, error) { return fault.ParseSpec(spec) }

// FaultKindsLB scopes a FaultPlan to the load-balancing handshake traffic.
func FaultKindsLB() []int { return engine.FaultKindsLB() }

// FaultKindsBoundary scopes a FaultPlan to boundary halo-exchange traffic.
func FaultKindsBoundary() []int { return engine.FaultKindsBoundary() }

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

// NewPoisson builds the stationary Poisson/Jacobi Problem (trajectories of
// length 1 — the classic asynchronous fixed-point iteration).
func NewPoisson(p poisson.Params) *poisson.Problem { return poisson.New(p) }

// PoissonParams configures the Poisson problem.
type PoissonParams = poisson.Params

// TraceLog collects execution events for Gantt rendering; assign one to
// Config.Trace.
type TraceLog = trace.Log

// GanttConfig controls ASCII Gantt rendering of a trace.
type GanttConfig = trace.GanttConfig

// Gantt renders a collected trace as an ASCII Gantt chart in the style of
// the paper's Figures 1-4.
func Gantt(l *TraceLog, cfg GanttConfig) string { return trace.Gantt(l, cfg) }

// VirtualRunner executes on the deterministic virtual-time runtime (the
// default when Config.Runner is nil).
func VirtualRunner() runenv.Runner { return vtime.Runner{} }

// RealRunner executes with real goroutine concurrency; one model second
// takes 1/speedup wall seconds (0 means the default of 1000).
func RealRunner(speedup float64) runenv.Runner { return rtime.Runner{Speedup: speedup} }

// SolveSequential runs the synchronous single-process Jacobi sweep baseline
// and returns the converged state; useful for validating Problem
// implementations.
func SolveSequential(p Problem, tol float64, maxIter int) ([][]float64, error) {
	res, err := iterative.SolveSequential(p, tol, maxIter)
	if err != nil {
		return nil, err
	}
	return res.State, nil
}

// Detection selects the global convergence-detection protocol.
type Detection = engine.Detection

// Detection protocols.
const (
	// DetectCentral uses the asynchronous two-phase verification detector.
	DetectCentral = engine.DetectCentral
	// DetectRing uses the decentralized Safra-style token protocol.
	DetectRing = engine.DetectRing
)

// History collects per-node per-iteration time series when assigned to
// Config.History.
type History = engine.History

// HistoryPoint is one sampled iteration of a History.
type HistoryPoint = engine.HistoryPoint

// Poisson2DParams configures the 2-D Poisson problem.
type Poisson2DParams = poisson2d.Params

// NewPoisson2D builds the 2-D Poisson problem with row-block decomposition
// (component = grid row, halo = one row).
func NewPoisson2D(p Poisson2DParams) *poisson2d.Problem { return poisson2d.New(p) }

// WindowFactory builds the problem for each time window of a windowed
// solve, given the previous window's final state (nil for the first).
type WindowFactory = windowing.Factory

// WindowedResult aggregates a windowed solve.
type WindowedResult = windowing.Result

// SolveWindows splits a long-horizon waveform solve into successive
// windows: each window is a complete parallel solve whose final state seeds
// the next window. See internal/windowing for details.
func SolveWindows(template Config, windows int, factory WindowFactory) (*WindowedResult, error) {
	return windowing.Solve(template, windows, factory)
}

// BrusselatorFinalState extracts per-cell (u, v) values at a solved
// window's final time, in the form BrusselatorParams.Init0 accepts — used
// to chain Brusselator windows.
func BrusselatorFinalState(state [][]float64) [][2]float64 {
	return brusselator.FinalState(state)
}

// NLDiffusionParams configures the nonlinear stationary diffusion problem.
type NLDiffusionParams = nldiffusion.Params

// NewNLDiffusion builds the quasi-linear diffusion problem
// −d/dx((1+u²)·du/dx) = f, solved by asynchronous nonlinear Jacobi
// relaxation (scalar Newton per point).
func NewNLDiffusion(p NLDiffusionParams) *nldiffusion.Problem { return nldiffusion.New(p) }

// SparseBuilder accumulates entries for a CSR sparse matrix.
type SparseBuilder = sparse.Builder

// SparseMatrix is an immutable CSR matrix.
type SparseMatrix = sparse.Matrix

// NewSparseBuilder creates a builder for an n×n sparse matrix.
func NewSparseBuilder(n int) *SparseBuilder { return sparse.NewBuilder(n) }

// LinSysParams configures an asynchronous weighted-Jacobi solve of a
// banded, diagonally dominant sparse linear system A·x = b.
type LinSysParams = linsys.Params

// NewLinSys turns the system into a Problem (halo = matrix bandwidth),
// rejecting systems without strict diagonal dominance unless
// AllowNonDominant is set.
func NewLinSys(p LinSysParams) (*linsys.Problem, error) { return linsys.New(p) }

// MetricsSink collects one run's telemetry when attached to Config.Metrics:
// periodic per-node samples, convergence-timeline events, messaging
// aggregates and the run manifest. Export it with WriteJSONL and render the
// file with cmd/aiacreport.
type MetricsSink = metrics.Sink

// Manifest is a telemetry run's self-description: configuration echo, host
// environment and sealed outcome.
type Manifest = metrics.Manifest

// MetricsRun is a parsed telemetry export.
type MetricsRun = metrics.Run

// ReadMetricsRun parses a telemetry JSONL file.
func ReadMetricsRun(path string) (*MetricsRun, error) { return metrics.ReadRunFile(path) }

// TraceEvent is one causally-tagged execution event of a TraceLog.
type TraceEvent = trace.Event

// WriteTraceCSV exports a trace in the stable CSV schema (12 columns with
// the causal fields and the process index; see internal/trace.WriteCSV).
func WriteTraceCSV(l *TraceLog, w io.Writer) error { return l.WriteCSV(w) }

// ReadTraceCSV parses a trace CSV export (the 7-column pre-causal, the
// 11-column pre-federation and the current 12-column schema).
func ReadTraceCSV(r io.Reader) ([]TraceEvent, error) { return trace.ReadCSV(r) }

// WriteChromeTrace exports a trace in the Chrome trace-event JSON format,
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// Messages become flow arrows between node tracks; a federated distributed
// trace renders one Chrome process per OS process, with flow arrows crossing
// process tracks wherever a message crossed the wire.
func WriteChromeTrace(l *TraceLog, w io.Writer) error { return trace.WriteChrome(l, w) }

// ProcTrace is one process's contribution to a federated distributed trace;
// see FederateTraces.
type ProcTrace = trace.ProcTrace

// FederateTraces merges the per-worker causal logs and the coordinator's
// wire log of one distributed run into a single global trace, normalizing
// every process onto one clock and collapsing cross-process sends into Wire
// spans. SolveDist does this automatically when Config.Trace is set; the
// explicit entry point serves offline federation of exported worker logs.
func FederateTraces(workers []ProcTrace, coord *ProcTrace) (*TraceLog, error) {
	return trace.Federate(workers, coord)
}

// CriticalPath is a run's convergence critical path: the happens-before
// chain of compute spans, message transits and LB transfers that ends at the
// halt decision, with per-kind and per-node time attribution.
type CriticalPath = trace.CriticalPath

// AnalyzeCriticalPath extracts the critical path from a trace's events.
func AnalyzeCriticalPath(events []TraceEvent) *CriticalPath { return trace.Analyze(events) }

// RenderCriticalPath formats a critical-path analysis as the aiacreport
// "critical path" section: summary, per-node blame table, top segments and
// the on-path/off-path LB transfer classification.
func RenderCriticalPath(cp *CriticalPath, topN int) string { return report.CriticalPath(cp, topN) }

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

// DistProcess is a spawned worker process handle.
type DistProcess = dtime.Process

// DistRunInfo is the coordinator's record of a distributed run: run id and
// directory, worker identities, and the federated end time.
type DistRunInfo = dtime.RunInfo

// DistWorkerInfo identifies one worker of a DistRunInfo.
type DistWorkerInfo = dtime.WorkerInfo

// DistWorkerError is the typed error SolveDist returns when one worker
// crashes or goes silent past the heartbeat deadline.
type DistWorkerError = dtime.WorkerError

// DistEnvVar is the environment variable carrying the encoded
// DistWorkerEnv to a spawned worker process. A binary that finds it set
// should decode it with DecodeDistWorkerEnv and call SolveDistWorker
// instead of running its normal path (cmd/aiacrun does exactly this).
const DistEnvVar = dtime.EnvVar

// SolveDist runs the configured solver across worker OS processes — node
// groups exchanging halo, load-balancing and detection messages over TCP —
// and assembles the same global Result Solve produces in process.
func SolveDist(cfg Config, opts DistOptions) (*Result, *DistRunInfo, error) {
	return engine.RunDist(cfg, opts)
}

// SolveDistWorker executes this process's share of a distributed run; the
// Config must match the coordinator's on every worker.
func SolveDistWorker(cfg Config, wenv DistWorkerEnv, opts DistWorkerOptions) error {
	return engine.RunDistWorker(cfg, wenv, opts)
}

// DecodeDistWorkerEnv decodes the DistEnvVar value of a worker process.
func DecodeDistWorkerEnv(s string) (DistWorkerEnv, error) { return dtime.DecodeWorkerEnv(s) }

// DistSpawnCommand returns a DistOptions.Spawn callback launching argv as
// each worker process, with the worker's DistWorkerEnv in DistEnvVar and
// its combined output captured as worker.log in its state directory. Pass
// os.Args to re-exec the current binary.
func DistSpawnCommand(argv []string) func(DistWorkerEnv) (DistProcess, error) {
	return dtime.SpawnCommand(argv)
}

// FaultInjector is a compiled FaultPlan; see DistFaultConn.
type FaultInjector = fault.Injector

// DistFaultConn builds the fault-injecting connection wrapper for a worker
// of a faulted distributed run (nil, nil when cfg.Faults is empty): assign
// the returns to DistWorkerOptions.WrapConn and WireFaults. speedup must
// match DistWorkerOptions.Speedup.
func DistFaultConn(cfg Config, speedup float64) (func(net.Conn) net.Conn, *FaultInjector) {
	return engine.DistFaultConn(cfg, speedup)
}

// ObsServer is the live observability HTTP server: /metrics (Prometheus
// text), /healthz (run phase + current max residual), /manifest (the run
// manifest as JSON) and /debug/pprof/*.
type ObsServer = obs.Server

// ServeObs starts an ObsServer for the sink on addr (e.g. ":8080"); close it
// with Close when the run ends.
func ServeObs(addr string, sink *MetricsSink) (*ObsServer, error) { return obs.Serve(addr, sink) }

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

// NewService opens the run registry under cfg.Root (rescanning recovers
// completed runs from a previous process) and starts the solver pool.
func NewService(cfg ServiceConfig) (*Service, error) { return obs.NewService(cfg) }

// ServeService serves a Service's control-plane API on addr; the listener
// is bound before it returns, so the address is immediately probeable.
func ServeService(addr string, svc *Service) (*ObsServer, error) {
	return obs.ServeService(addr, svc)
}
