package obs

import (
	"fmt"
	"strings"

	"aiac/internal/brusselator"
	"aiac/internal/engine"
	"aiac/internal/fault"
	"aiac/internal/grid"
	"aiac/internal/heat"
	"aiac/internal/iterative"
	"aiac/internal/loadbalance"
	"aiac/internal/metrics"
	"aiac/internal/nldiffusion"
	"aiac/internal/poisson"
	"aiac/internal/poisson2d"
	"aiac/internal/rtime"
	"aiac/internal/trace"
)

// RunSpec is the declarative description of one run, and BuildConfig the
// only place it becomes an engine.Config. Both front doors fill one: POST
// /runs decodes its JSON body into it, and aiacrun binds its run-describing
// flags onto its fields (the flag surface is a view of the spec, with the
// spec's defaults). A zero field means "the default" (WithDefaults) on both
// doors, so {} is a valid spec: a 4-node AIAC Brusselator on a homogeneous
// platform.
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
	// Seed draws the heterogeneous and grid15 platforms' node speeds and
	// loads (default 1); the manifest records it. Nothing else in the run
	// is random but the faults, which FaultSeed draws.
	Seed int64 `json:"seed,omitempty"`

	LB          bool   `json:"lb,omitempty"`
	LBPeriod    int    `json:"lb_period,omitempty"`
	LBEstimator string `json:"lb_estimator,omitempty"` // residual, itertime, count
	LBMinKeep   int    `json:"lb_min_keep,omitempty"`

	Faults    string `json:"faults,omitempty"` // aiacrun -faults spec
	FaultSeed int64  `json:"fault_seed,omitempty"`

	Ring        bool `json:"ring,omitempty"` // decentralized ring detection
	GaussSeidel bool `json:"gauss_seidel,omitempty"`

	Backend string  `json:"backend,omitempty"` // vtime (default), rtime, dist (aiacrun only)
	Speedup float64 `json:"speedup,omitempty"` // rtime, dist: model s per wall s (default 50)
	MaxTime float64 `json:"max_time,omitempty"`

	MetricsPeriod float64 `json:"metrics_period,omitempty"`

	// Trace collects the causally-tagged execution trace and writes it to
	// the run's trace.csv artifact. TraceCap bounds its memory (events,
	// approximate; 0 = unbounded).
	Trace    bool `json:"trace,omitempty"`
	TraceCap int  `json:"trace_cap,omitempty"`
}

// WithDefaults fills the defaults into zero fields. It is idempotent, and the
// only place a default is written: aiacrun's -h shows these values.
func (sp RunSpec) WithDefaults() RunSpec {
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

// newProblem checks params with the problem package's own Validate before
// its constructor, which panics on what Validate rejects.
func newProblem[P interface{ Validate() error }, T iterative.Problem](params P, build func(P) T) (iterative.Problem, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return build(params), nil
}

// BuildConfig validates the spec and translates it into an engine
// configuration that is ready to run: cfg.Metrics is a fresh sink whose
// manifest names the run and the host, and cfg.Trace a fresh (capped) log when the spec
// asks for a trace. A caller that wants less detaches it. An error here is
// everything engine.Run would refuse, so a front door can reject a bad spec
// before it spends anything on it.
func (sp RunSpec) BuildConfig() (engine.Config, error) {
	sp = sp.WithDefaults()
	cfg := engine.Config{
		P:                sp.P,
		Tol:              sp.Tol,
		MaxIter:          sp.MaxIter,
		Seed:             sp.Seed,
		MaxTime:          sp.MaxTime,
		GaussSeidelLocal: sp.GaussSeidel,
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
		return cfg, fmt.Errorf("unknown mode %q", sp.Mode)
	}

	var err error
	switch strings.ToLower(sp.Problem) {
	case "brusselator":
		params := brusselator.DefaultParams(sp.N, sp.Dt)
		params.T = sp.T
		cfg.Problem, err = newProblem(params, brusselator.New)
	case "heat":
		params := heat.DefaultParams(sp.N, sp.Dt)
		params.T = sp.T
		cfg.Problem, err = newProblem(params, heat.New)
	case "poisson":
		cfg.Problem, err = newProblem(poisson.Params{N: sp.N}, poisson.New)
	case "poisson2d":
		cfg.Problem, err = newProblem(poisson2d.Params{N: sp.N}, poisson2d.New)
	case "nldiffusion":
		cfg.Problem, err = newProblem(nldiffusion.Params{N: sp.N, NewtonTol: 1e-12, MaxNewton: 40}, nldiffusion.New)
	default:
		err = fmt.Errorf("unknown problem %q", sp.Problem)
	}
	if err != nil {
		return cfg, err
	}

	if sp.P < 1 { // the cluster presets panic on it
		return cfg, fmt.Errorf("p = %d, need >= 1", sp.P)
	}
	switch strings.ToLower(sp.Cluster) {
	case "homogeneous":
		cfg.Cluster = grid.Homogeneous(sp.P)
	case "heterogeneous":
		cfg.Cluster = grid.Heterogeneous(sp.P, 0.25, sp.Seed)
	case "grid15":
		cfg.Cluster = grid.HeteroGrid15(grid.HeteroGridConfig{Seed: sp.Seed, MultiUser: true})
		if sp.P > cfg.Cluster.P() {
			return cfg, fmt.Errorf("grid15 has %d nodes, requested %d", cfg.Cluster.P(), sp.P)
		}
	default:
		return cfg, fmt.Errorf("unknown cluster %q", sp.Cluster)
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
			return cfg, fmt.Errorf("unknown estimator %q", sp.LBEstimator)
		}
		cfg.LB = pol
	}

	if sp.Faults != "" {
		plan, scope, err := fault.ParseSpec(sp.Faults)
		if err != nil {
			return cfg, err
		}
		plan.Seed = sp.FaultSeed
		switch scope {
		case "":
		case "lb":
			plan.Kinds = engine.FaultKindsLB()
		case "boundary":
			plan.Kinds = engine.FaultKindsBoundary()
		default:
			return cfg, fmt.Errorf("unknown fault scope %q (want lb or boundary)", scope)
		}
		cfg.Faults = &plan
	}

	if sp.Ring {
		cfg.Detection = engine.DetectRing
	}

	switch strings.ToLower(sp.Backend) {
	case "vtime":
	case "rtime":
		cfg.Runner = rtime.Runner{Speedup: sp.Speedup}
		fallthrough
	case "dist":
		// dist has no Runner: its workers pace themselves like rtime
		// (DistOptions.Speedup). On both, the watchdog bound keeps a
		// diverging run from hanging for ever.
		if cfg.MaxTime == 0 {
			cfg.MaxTime = 1e6
		}
	default:
		return cfg, fmt.Errorf("unknown backend %q (want vtime, rtime or dist)", sp.Backend)
	}

	sink := &metrics.Sink{Period: sp.MetricsPeriod}
	sink.Manifest.Name = sp.Name
	sink.Manifest.Problem = fmt.Sprintf("%s-%d", strings.ToLower(sp.Problem), sp.N)
	sink.Manifest.Cluster = strings.ToLower(sp.Cluster)
	sink.Manifest.FaultSpec = sp.Faults
	sink.Manifest.FillHost()
	cfg.Metrics = sink
	if sp.Trace {
		cfg.Trace = &trace.Log{}
		cfg.Trace.SetCap(sp.TraceCap) // 0 = unbounded
	}
	return cfg, cfg.Validate()
}
