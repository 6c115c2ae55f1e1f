package obs

import (
	"fmt"
	"strings"

	"aiac/internal/brusselator"
	"aiac/internal/engine"
	"aiac/internal/fault"
	"aiac/internal/grid"
	"aiac/internal/heat"
	"aiac/internal/loadbalance"
	"aiac/internal/metrics"
	"aiac/internal/nldiffusion"
	"aiac/internal/poisson"
	"aiac/internal/poisson2d"
	"aiac/internal/rtime"
)

// RunSpec is the JSON body of POST /runs: a declarative mirror of the
// aiacrun flag surface. Zero values mean the same defaults the CLI uses, so
// {} is a valid spec (4-node AIAC Brusselator on a homogeneous platform).
// The dist backend is CLI-only — a service run executes in-process on the
// vtime or rtime runtime.
type RunSpec struct {
	// Name labels the run in its manifest (default "svc").
	Name string `json:"name,omitempty"`
	// Tenant is the fair-queuing identity the run is accounted to
	// (default "default"). The scheduler round-robins across tenants.
	Tenant string `json:"tenant,omitempty"`

	Mode    string  `json:"mode,omitempty"`    // sisc, siac, aiac-general, aiac
	P       int     `json:"p,omitempty"`       // worker nodes (default 4)
	Problem string  `json:"problem,omitempty"` // brusselator, heat, poisson, poisson2d, nldiffusion
	N       int     `json:"n,omitempty"`       // grid size (default 64)
	Dt      float64 `json:"dt,omitempty"`      // time step (default 0.02)
	T       float64 `json:"t,omitempty"`       // time horizon (default 1)
	Tol     float64 `json:"tol,omitempty"`     // residual tolerance (default 1e-7)
	MaxIter int     `json:"max_iter,omitempty"`
	Cluster string  `json:"cluster,omitempty"` // homogeneous, heterogeneous, grid15
	Seed    int64   `json:"seed,omitempty"`

	LB          bool   `json:"lb,omitempty"`
	LBPeriod    int    `json:"lb_period,omitempty"`
	LBEstimator string `json:"lb_estimator,omitempty"` // residual, itertime, count
	LBMinKeep   int    `json:"lb_min_keep,omitempty"`

	Faults    string `json:"faults,omitempty"` // aiacrun -faults spec
	FaultSeed int64  `json:"fault_seed,omitempty"`

	Ring        bool `json:"ring,omitempty"` // decentralized ring detection
	GaussSeidel bool `json:"gauss_seidel,omitempty"`

	Backend string  `json:"backend,omitempty"` // vtime (default), rtime
	Speedup float64 `json:"speedup,omitempty"` // rtime: model s per wall s (default 50)
	MaxTime float64 `json:"max_time,omitempty"`

	MetricsPeriod float64 `json:"metrics_period,omitempty"`

	// Trace collects the causally-tagged execution trace and writes it to
	// the run's trace.csv artifact. TraceCap bounds its memory (events,
	// approximate; 0 = unbounded).
	Trace    bool `json:"trace,omitempty"`
	TraceCap int  `json:"trace_cap,omitempty"`
}

// withDefaults fills the CLI defaults into zero fields.
func (sp RunSpec) withDefaults() RunSpec {
	if sp.Name == "" {
		sp.Name = "svc"
	}
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if sp.Mode == "" {
		sp.Mode = "aiac"
	}
	if sp.P == 0 {
		sp.P = 4
	}
	if sp.Problem == "" {
		sp.Problem = "brusselator"
	}
	if sp.N == 0 {
		sp.N = 64
	}
	if sp.Dt == 0 {
		sp.Dt = 0.02
	}
	if sp.T == 0 {
		sp.T = 1
	}
	if sp.Tol == 0 {
		sp.Tol = 1e-7
	}
	if sp.MaxIter == 0 {
		sp.MaxIter = 200000
	}
	if sp.Cluster == "" {
		sp.Cluster = "homogeneous"
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.LBPeriod == 0 {
		sp.LBPeriod = 20
	}
	if sp.LBEstimator == "" {
		sp.LBEstimator = "residual"
	}
	if sp.LBMinKeep == 0 {
		sp.LBMinKeep = 2
	}
	if sp.FaultSeed == 0 {
		sp.FaultSeed = 1
	}
	if sp.Backend == "" {
		sp.Backend = "vtime"
	}
	if sp.Speedup == 0 {
		sp.Speedup = 50
	}
	return sp
}

// BuildConfig validates the spec and assembles the engine configuration
// plus a manifest-ready sink. The sink is not yet attached to the config —
// the scheduler wires it (and the cancel hook) when the run starts.
func (sp RunSpec) BuildConfig() (engine.Config, *metrics.Sink, error) {
	sp = sp.withDefaults()
	cfg := engine.Config{
		P:       sp.P,
		Tol:     sp.Tol,
		MaxIter: sp.MaxIter,
		Seed:    sp.Seed,
		MaxTime: sp.MaxTime,
	}

	switch strings.ToLower(sp.Mode) {
	case "sisc":
		cfg.Mode = engine.SISC
	case "siac":
		cfg.Mode = engine.SIAC
	case "aiac-general":
		cfg.Mode = engine.AIACGeneral
	case "aiac":
		cfg.Mode = engine.AIAC
	default:
		return cfg, nil, fmt.Errorf("unknown mode %q", sp.Mode)
	}

	switch strings.ToLower(sp.Problem) {
	case "brusselator":
		params := brusselator.DefaultParams(sp.N, sp.Dt)
		params.T = sp.T
		cfg.Problem = brusselator.New(params)
	case "heat":
		params := heat.DefaultParams(sp.N, sp.Dt)
		params.T = sp.T
		cfg.Problem = heat.New(params)
	case "poisson":
		cfg.Problem = poisson.New(poisson.Params{N: sp.N})
	case "poisson2d":
		cfg.Problem = poisson2d.New(poisson2d.Params{N: sp.N})
	case "nldiffusion":
		cfg.Problem = nldiffusion.New(nldiffusion.Params{N: sp.N, NewtonTol: 1e-12, MaxNewton: 40})
	default:
		return cfg, nil, fmt.Errorf("unknown problem %q", sp.Problem)
	}

	switch strings.ToLower(sp.Cluster) {
	case "homogeneous":
		cfg.Cluster = grid.Homogeneous(sp.P)
	case "heterogeneous":
		cfg.Cluster = grid.Heterogeneous(sp.P, 0.25, sp.Seed)
	case "grid15":
		cfg.Cluster = grid.HeteroGrid15(grid.HeteroGridConfig{Seed: sp.Seed, MultiUser: true})
		if sp.P > cfg.Cluster.P() {
			return cfg, nil, fmt.Errorf("grid15 has %d nodes, requested %d", cfg.Cluster.P(), sp.P)
		}
	default:
		return cfg, nil, fmt.Errorf("unknown cluster %q", sp.Cluster)
	}

	if sp.LB {
		pol := loadbalance.DefaultPolicy()
		pol.Period = sp.LBPeriod
		pol.MinKeep = sp.LBMinKeep
		switch strings.ToLower(sp.LBEstimator) {
		case "residual":
			pol.Estimator = loadbalance.EstimatorResidual
		case "itertime":
			pol.Estimator = loadbalance.EstimatorIterTime
		case "count":
			pol.Estimator = loadbalance.EstimatorCount
		default:
			return cfg, nil, fmt.Errorf("unknown estimator %q", sp.LBEstimator)
		}
		cfg.LB = pol
	}

	if sp.Faults != "" {
		plan, scope, err := fault.ParseSpec(sp.Faults)
		if err != nil {
			return cfg, nil, err
		}
		plan.Seed = sp.FaultSeed
		switch scope {
		case "":
		case "lb":
			plan.Kinds = engine.FaultKindsLB()
		case "boundary":
			plan.Kinds = engine.FaultKindsBoundary()
		default:
			return cfg, nil, fmt.Errorf("unknown fault scope %q (want lb or boundary)", scope)
		}
		cfg.Faults = &plan
	}

	if sp.Ring {
		cfg.Detection = engine.DetectRing
	}
	cfg.GaussSeidelLocal = sp.GaussSeidel

	switch strings.ToLower(sp.Backend) {
	case "vtime":
	case "rtime":
		cfg.Runner = rtime.Runner{Speedup: sp.Speedup}
		if cfg.MaxTime == 0 {
			cfg.MaxTime = 1e6
		}
	default:
		return cfg, nil, fmt.Errorf("unknown backend %q (service runs support vtime and rtime)", sp.Backend)
	}

	sink := &metrics.Sink{Period: sp.MetricsPeriod}
	sink.Manifest.Name = sp.Name
	sink.Manifest.Problem = fmt.Sprintf("%s-%d", strings.ToLower(sp.Problem), sp.N)
	sink.Manifest.Cluster = strings.ToLower(sp.Cluster)
	if sp.Faults != "" {
		sink.Manifest.FaultSpec = sp.Faults
	}
	return cfg, sink, nil
}
