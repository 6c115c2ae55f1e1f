package obs

import (
	"reflect"
	"strings"
	"testing"

	"aiac/internal/brusselator"
	"aiac/internal/engine"
	"aiac/internal/heat"
	"aiac/internal/loadbalance"
	"aiac/internal/nldiffusion"
	"aiac/internal/poisson"
	"aiac/internal/poisson2d"
	"aiac/internal/rtime"
	"aiac/internal/trace"
)

// jsonFields lists the JSON names of RunSpec's fields, in declaration order.
func jsonFields() []string {
	var names []string
	rt := reflect.TypeOf(RunSpec{})
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		names = append(names, name)
	}
	return names
}

func eq(t *testing.T, what string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

// TestBuildConfigTable pins the one knob→engine.Config translator: for every
// field of RunSpec, what setting it does to the configuration BuildConfig
// returns. A field without a row fails the test.
func TestBuildConfigTable(t *testing.T) {
	rows := []struct {
		field string // JSON name of the field the row is about
		spec  RunSpec
		check func(t *testing.T, cfg engine.Config)
	}{
		{"name", RunSpec{Name: "fig5"}, func(t *testing.T, cfg engine.Config) {
			eq(t, "manifest name", cfg.Metrics.Manifest.Name, "fig5")
		}},
		{"name", RunSpec{}, func(t *testing.T, cfg engine.Config) {
			m := cfg.Metrics.Manifest
			eq(t, "default manifest naming", []string{m.Name, m.Problem, m.Cluster, m.FaultSpec},
				[]string{"svc", "brusselator-64", "homogeneous", ""})
		}},
		// The tenant is the scheduler's business: it leaves no mark here.
		{"tenant", RunSpec{Tenant: "alice"}, func(t *testing.T, cfg engine.Config) {}},

		{"mode", RunSpec{Mode: "sisc"}, func(t *testing.T, cfg engine.Config) { eq(t, "mode", cfg.Mode, engine.SISC) }},
		{"mode", RunSpec{Mode: "SIAC"}, func(t *testing.T, cfg engine.Config) { eq(t, "mode", cfg.Mode, engine.SIAC) }},
		{"mode", RunSpec{Mode: "aiac-general"}, func(t *testing.T, cfg engine.Config) { eq(t, "mode", cfg.Mode, engine.AIACGeneral) }},
		{"mode", RunSpec{}, func(t *testing.T, cfg engine.Config) { eq(t, "mode", cfg.Mode, engine.AIAC) }},
		{"p", RunSpec{P: 3}, func(t *testing.T, cfg engine.Config) {
			eq(t, "P, cluster size", []int{cfg.P, cfg.Cluster.P()}, []int{3, 3})
		}},

		{"problem", RunSpec{}, func(t *testing.T, cfg engine.Config) {
			eq(t, "params", cfg.Problem.(*brusselator.Problem).Params().N, 64)
		}},
		{"problem", RunSpec{Problem: "heat", N: 24, Dt: 0.01, T: 0.5}, func(t *testing.T, cfg engine.Config) {
			p := cfg.Problem.(*heat.Problem).Params()
			eq(t, "heat N, Dt, T", []float64{float64(p.N), p.Dt, p.T}, []float64{24, 0.01, 0.5})
			eq(t, "manifest problem", cfg.Metrics.Manifest.Problem, "heat-24")
		}},
		{"problem", RunSpec{Problem: "Poisson", N: 40}, func(t *testing.T, cfg engine.Config) {
			eq(t, "poisson N", cfg.Problem.(*poisson.Problem).Params().N, 40)
			eq(t, "manifest problem", cfg.Metrics.Manifest.Problem, "poisson-40")
		}},
		{"problem", RunSpec{Problem: "poisson2d", N: 12}, func(t *testing.T, cfg engine.Config) {
			eq(t, "poisson2d N", cfg.Problem.(*poisson2d.Problem).Params().N, 12)
		}},
		{"problem", RunSpec{Problem: "nldiffusion", N: 30}, func(t *testing.T, cfg engine.Config) {
			eq(t, "nldiffusion params", cfg.Problem.(*nldiffusion.Problem).Params(),
				nldiffusion.Params{N: 30, NewtonTol: 1e-12, MaxNewton: 40})
		}},
		{"n", RunSpec{N: 20}, func(t *testing.T, cfg engine.Config) {
			eq(t, "N", cfg.Problem.(*brusselator.Problem).Params().N, 20)
			eq(t, "manifest problem", cfg.Metrics.Manifest.Problem, "brusselator-20")
		}},
		{"dt", RunSpec{Dt: 0.05}, func(t *testing.T, cfg engine.Config) {
			eq(t, "Dt", cfg.Problem.(*brusselator.Problem).Params().Dt, 0.05)
		}},
		{"t", RunSpec{T: 2}, func(t *testing.T, cfg engine.Config) {
			eq(t, "T", cfg.Problem.(*brusselator.Problem).Params().T, 2.0)
		}},
		{"tol", RunSpec{Tol: 1e-4}, func(t *testing.T, cfg engine.Config) { eq(t, "Tol", cfg.Tol, 1e-4) }},
		{"max_iter", RunSpec{MaxIter: 77}, func(t *testing.T, cfg engine.Config) { eq(t, "MaxIter", cfg.MaxIter, 77) }},

		{"cluster", RunSpec{}, func(t *testing.T, cfg engine.Config) {
			eq(t, "equal speeds", cfg.Cluster.Nodes[0].Speed, cfg.Cluster.Nodes[3].Speed)
		}},
		{"cluster", RunSpec{Cluster: "Heterogeneous"}, func(t *testing.T, cfg engine.Config) {
			if c := cfg.Cluster; c.P() != 4 || c.Nodes[0].Speed == c.Nodes[1].Speed {
				t.Errorf("heterogeneous cluster: %d nodes, speeds %v %v", c.P(), c.Nodes[0].Speed, c.Nodes[1].Speed)
			}
			eq(t, "manifest cluster", cfg.Metrics.Manifest.Cluster, "heterogeneous")
		}},
		{"cluster", RunSpec{Cluster: "grid15", P: 15}, func(t *testing.T, cfg engine.Config) {
			eq(t, "grid15 nodes, sites", []int{cfg.Cluster.P(), len(cfg.Cluster.Sites)}, []int{15, 3})
		}},
		{"seed", RunSpec{Seed: 9, Cluster: "heterogeneous"}, func(t *testing.T, cfg engine.Config) {
			eq(t, "Seed", cfg.Seed, int64(9))
			other, err := RunSpec{Seed: 10, Cluster: "heterogeneous"}.BuildConfig()
			if err != nil || reflect.DeepEqual(other.Cluster.Nodes, cfg.Cluster.Nodes) {
				t.Errorf("the seed does not reach the platform (err %v)", err)
			}
		}},

		{"lb", RunSpec{}, func(t *testing.T, cfg engine.Config) { eq(t, "LB", cfg.LB, loadbalance.Policy{}) }},
		{"lb", RunSpec{LB: true}, func(t *testing.T, cfg engine.Config) {
			want := loadbalance.DefaultPolicy()
			want.Period, want.MinKeep, want.Estimator = 20, 2, loadbalance.EstimatorResidual
			eq(t, "LB", cfg.LB, want)
		}},
		{"lb_period", RunSpec{LB: true, LBPeriod: 5}, func(t *testing.T, cfg engine.Config) { eq(t, "Period", cfg.LB.Period, 5) }},
		{"lb_estimator", RunSpec{LB: true, LBEstimator: "itertime"}, func(t *testing.T, cfg engine.Config) {
			eq(t, "Estimator", cfg.LB.Estimator, loadbalance.EstimatorIterTime)
		}},
		{"lb_estimator", RunSpec{LB: true, LBEstimator: "count"}, func(t *testing.T, cfg engine.Config) {
			eq(t, "Estimator", cfg.LB.Estimator, loadbalance.EstimatorCount)
		}},
		{"lb_min_keep", RunSpec{LB: true, LBMinKeep: 3}, func(t *testing.T, cfg engine.Config) { eq(t, "MinKeep", cfg.LB.MinKeep, 3) }},

		{"faults", RunSpec{}, func(t *testing.T, cfg engine.Config) {
			if cfg.Faults != nil {
				t.Errorf("a fault plan without a fault spec: %+v", cfg.Faults)
			}
		}},
		{"faults", RunSpec{Faults: "drop=0.05,dup=0.02"}, func(t *testing.T, cfg engine.Config) {
			eq(t, "rates", []float64{cfg.Faults.Msg.Drop, cfg.Faults.Msg.Dup}, []float64{0.05, 0.02})
			eq(t, "kinds", cfg.Faults.Kinds, []int(nil))
			eq(t, "manifest fault spec", cfg.Metrics.Manifest.FaultSpec, "drop=0.05,dup=0.02")
		}},
		{"faults", RunSpec{Faults: "drop=0.05,scope=lb"}, func(t *testing.T, cfg engine.Config) {
			eq(t, "kinds", cfg.Faults.Kinds, engine.FaultKindsLB())
		}},
		{"faults", RunSpec{Faults: "spike=0.1,scope=boundary"}, func(t *testing.T, cfg engine.Config) {
			eq(t, "kinds", cfg.Faults.Kinds, engine.FaultKindsBoundary())
		}},
		{"fault_seed", RunSpec{Faults: "drop=0.05", FaultSeed: 7}, func(t *testing.T, cfg engine.Config) {
			eq(t, "plan seed", cfg.Faults.Seed, int64(7))
		}},
		{"fault_seed", RunSpec{Faults: "drop=0.05"}, func(t *testing.T, cfg engine.Config) {
			eq(t, "plan seed", cfg.Faults.Seed, int64(1))
		}},

		{"ring", RunSpec{Ring: true}, func(t *testing.T, cfg engine.Config) { eq(t, "Detection", cfg.Detection, engine.DetectRing) }},
		{"gauss_seidel", RunSpec{GaussSeidel: true}, func(t *testing.T, cfg engine.Config) {
			eq(t, "GaussSeidelLocal", cfg.GaussSeidelLocal, true)
		}},

		{"backend", RunSpec{}, func(t *testing.T, cfg engine.Config) {
			eq(t, "vtime Runner, MaxTime", []any{cfg.Runner, cfg.MaxTime}, []any{nil, 0.0})
		}},
		{"backend", RunSpec{Backend: "rtime"}, func(t *testing.T, cfg engine.Config) {
			eq(t, "rtime Runner, MaxTime", []any{cfg.Runner, cfg.MaxTime}, []any{rtime.Runner{Speedup: 50}, 1e6})
		}},
		{"backend", RunSpec{Backend: "dist"}, func(t *testing.T, cfg engine.Config) {
			eq(t, "dist Runner, MaxTime", []any{cfg.Runner, cfg.MaxTime}, []any{nil, 1e6})
		}},
		{"speedup", RunSpec{Backend: "rtime", Speedup: 200}, func(t *testing.T, cfg engine.Config) {
			eq(t, "Runner", cfg.Runner, rtime.Runner{Speedup: 200})
		}},
		{"max_time", RunSpec{Backend: "rtime", MaxTime: 30}, func(t *testing.T, cfg engine.Config) { eq(t, "MaxTime", cfg.MaxTime, 30.0) }},
		{"max_time", RunSpec{MaxTime: 30}, func(t *testing.T, cfg engine.Config) { eq(t, "MaxTime", cfg.MaxTime, 30.0) }},

		{"metrics_period", RunSpec{MetricsPeriod: 0.25}, func(t *testing.T, cfg engine.Config) {
			eq(t, "sink period", cfg.Metrics.Period, 0.25)
		}},
		{"trace", RunSpec{}, func(t *testing.T, cfg engine.Config) {
			if cfg.Trace != nil {
				t.Error("a trace log nobody asked for")
			}
		}},
		{"trace", RunSpec{Trace: true}, func(t *testing.T, cfg engine.Config) {
			for i := 0; i < 100; i++ {
				cfg.Trace.Add(trace.Event{})
			}
			eq(t, "unbounded log: kept, dropped", []uint64{uint64(cfg.Trace.Len()), cfg.Trace.Dropped()}, []uint64{100, 0})
		}},
		{"trace_cap", RunSpec{Trace: true, TraceCap: 10}, func(t *testing.T, cfg engine.Config) {
			for i := 0; i < 100; i++ {
				cfg.Trace.Add(trace.Event{})
			}
			if n, d := cfg.Trace.Len(), cfg.Trace.Dropped(); n > 10 || uint64(n)+d != 100 {
				t.Errorf("log capped at 10 keeps %d and drops %d of 100", n, d)
			}
		}},
	}

	covered := map[string]bool{}
	for _, row := range rows {
		covered[row.field] = true
		cfg, err := row.spec.BuildConfig()
		if err != nil {
			t.Errorf("%s: %+v: %v", row.field, row.spec, err)
			continue
		}
		if cfg.Metrics == nil {
			t.Fatalf("%s: no sink attached", row.field)
		}
		t.Run(row.field, func(t *testing.T) { row.check(t, cfg) })
	}
	for _, name := range jsonFields() {
		if !covered[name] {
			t.Errorf("RunSpec field %q has no row in this table", name)
		}
	}
}

// TestWithDefaults: the defaults are a fixed point, leave set fields alone,
// and make the empty spec a valid run.
func TestWithDefaults(t *testing.T) {
	d := RunSpec{}.WithDefaults()
	if again := d.WithDefaults(); again != d {
		t.Errorf("not idempotent:\n once  %+v\n twice %+v", d, again)
	}
	want := RunSpec{
		Name: "svc", Tenant: "default", Mode: "aiac", P: 4, Problem: "brusselator", N: 64, Dt: 0.02, T: 1,
		Tol: 1e-7, MaxIter: 200000, Cluster: "homogeneous", Seed: 1, LBPeriod: 20, LBEstimator: "residual",
		LBMinKeep: 2, FaultSeed: 1, Backend: "vtime", Speedup: 50,
	}
	if d != want {
		t.Errorf("defaults\n got  %+v\n want %+v", d, want)
	}
	set := RunSpec{Name: "aiacrun", P: 8, Seed: 3, Backend: "rtime", Speedup: 2}.WithDefaults()
	if set.Name != "aiacrun" || set.P != 8 || set.Seed != 3 || set.Backend != "rtime" || set.Speedup != 2 {
		t.Errorf("defaults overwrote set fields: %+v", set)
	}
	if _, err := (RunSpec{}).BuildConfig(); err != nil {
		t.Errorf("{} is not a valid spec: %v", err)
	}
}
