package engine

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aiac/internal/brusselator"
	"aiac/internal/fault"
	"aiac/internal/grid"
	"aiac/internal/iterative"
	"aiac/internal/loadbalance"
	"aiac/internal/metrics"
	"aiac/internal/rtime"
	"aiac/internal/runenv"
	"aiac/internal/vtime"
)

// cancelCfg builds a long run (tiny tolerance, huge iteration budget) so a
// cancel hook firing early is guaranteed to interrupt it mid-flight.
func cancelCfg(p int) Config {
	params := brusselator.DefaultParams(16, 0.05)
	params.T = 1
	return Config{
		Mode:    AIAC,
		P:       p,
		Problem: brusselator.New(params),
		Cluster: grid.Homogeneous(p),
		Tol:     1e-300,
		MaxIter: 1 << 30,
	}
}

func TestCancelStopsVtimeRun(t *testing.T) {
	cfg := cancelCfg(4)
	// The hook is polled between events, so a poll counter cancels at a
	// deterministic point early in the run, long before convergence.
	polls := 0
	cfg.Cancel = func() bool {
		polls++
		return polls > 200
	}
	sink := &metrics.Sink{}
	cfg.Metrics = sink

	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Canceled {
		t.Fatalf("expected Canceled, got converged=%v timedOut=%v", res.Converged, res.TimedOut)
	}
	if res.Converged {
		t.Fatalf("canceled run reported converged")
	}
	out := sink.Manifest.Outcome
	if out == nil {
		t.Fatalf("canceled run left no sealed outcome")
	}
	if !out.Canceled || out.Converged {
		t.Fatalf("sealed outcome = %+v, want canceled", out)
	}
	// The digest aiacrun -json prints tells a canceled run from a MaxIter
	// abort.
	var digest strings.Builder
	if err := res.WriteJSON(&digest); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(digest.String(), `"canceled": true`) {
		t.Fatalf("the JSON digest of a canceled run says nothing of it:\n%s", digest.String())
	}
}

func TestCancelStopsRtimeRun(t *testing.T) {
	cfg := cancelCfg(2)
	// Real time at 1x: the run spans ~1 wall second, so a hook that is
	// already true when the 2ms poller first fires cancels it immediately.
	cfg.Runner = rtime.Runner{Speedup: 1}
	cfg.MaxTime = 1e6
	var flag atomic.Bool
	flag.Store(true)
	cfg.Cancel = flag.Load

	start := time.Now()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Canceled {
		t.Fatalf("expected Canceled (converged=%v)", res.Converged)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("cancel took %v to stop the world", wall)
	}
}

// TestCancelNilIsBitIdentical pins that a never-firing cancel hook does not
// perturb the deterministic execution.
func TestCancelNilIsBitIdentical(t *testing.T) {
	mk := func(cancel func() bool) *Result {
		params := brusselator.DefaultParams(16, 0.05)
		params.T = 1
		cfg := Config{
			Mode:    AIAC,
			P:       4,
			Problem: brusselator.New(params),
			Cluster: grid.Heterogeneous(4, 0.25, 1),
			Tol:     1e-6,
			MaxIter: 200000,
			Seed:    1,
			Cancel:  cancel,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a := mk(nil)
	b := mk(func() bool { return false })
	if a.Time != b.Time || a.TotalIters != b.TotalIters || a.MaxResidual != b.MaxResidual {
		t.Fatalf("cancel hook perturbed the run: %v/%d/%g vs %v/%d/%g",
			a.Time, a.TotalIters, a.MaxResidual, b.Time, b.TotalIters, b.MaxResidual)
	}
	if b.Canceled {
		t.Fatalf("false cancel hook marked the run canceled")
	}
	var digest strings.Builder
	if err := b.WriteJSON(&digest); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(digest.String(), "canceled") {
		t.Fatalf("the JSON digest of an uncanceled run names canceled:\n%s", digest.String())
	}
}

// TestMaxTimeStopsRtimeRun pins that the real-time runtime's watchdog
// reports a MaxTime stop as the virtual-time scheduler does (see
// TestMaxTimeStops): the result and the sealed manifest say timed out.
func TestMaxTimeStopsRtimeRun(t *testing.T) {
	cfg := cancelCfg(2)
	// 64 components need ~2.4 model seconds to iterate to a zero residual.
	params := brusselator.DefaultParams(64, 0.05)
	params.T = 1
	cfg.Problem = brusselator.New(params)
	cfg.Runner = rtime.Runner{Speedup: 50}
	cfg.MaxTime = 0.5
	sink := &metrics.Sink{}
	cfg.Metrics = sink

	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.TimedOut || res.Converged || res.Canceled {
		t.Fatalf("converged=%v timedOut=%v canceled=%v time=%g, want only timedOut",
			res.Converged, res.TimedOut, res.Canceled, res.Time)
	}
	sealed, err := json.Marshal(sink.Manifest.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sealed), `"timed_out":true`) {
		t.Fatalf("sealed outcome %s carries no timed_out", sealed)
	}
}

// panickingProblem panics in its Update once it has been called after calls;
// it hides the wrapped problem's optional extensions, so every sweep reaches
// Update.
type panickingProblem struct {
	iterative.Problem
	after int
	calls int
}

func (p *panickingProblem) Update(j int, old []float64, get func(int) []float64, out []float64) float64 {
	if p.calls++; p.calls > p.after {
		panic("update failed")
	}
	return p.Problem.Update(j, old, get, out)
}

// TestPanickingUpdateIsRecoverable: a problem that panics mid-run on the
// virtual-time backend hands the panic to Run's caller, as a service worker
// that recovers around Run needs, and leaves none of the run's processes
// behind.
func TestPanickingUpdateIsRecoverable(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := cancelCfg(4)
	cfg.LB = loadbalance.DefaultPolicy()
	cfg.Problem = &panickingProblem{Problem: cfg.Problem, after: 500}
	got := func() (v any) {
		defer func() { v = recover() }()
		Run(cfg)
		return nil
	}()
	if got != "update failed" {
		t.Fatalf("Run's caller recovered %v, want the Update panic", got)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the panicking run, %d before", n, base)
	}
}

// passThrough is a Runner that hides the runtime it wraps, as a tracing or
// timing wrapper does.
type passThrough struct{ inner runenv.Runner }

func (r passThrough) Run(cfg runenv.Config, bodies []runenv.Body) float64 {
	return r.inner.Run(cfg, bodies)
}

// TestVerdictSameBehindWrapper: every way a run can end reads the same on a
// bare vtime.Runner and behind a wrapper — the same Result bools, the same
// sealed outcome — and at most one of Converged, TimedOut and Canceled is
// true.
func TestVerdictSameBehindWrapper(t *testing.T) {
	prob, _ := smallBruss()
	rows := []struct {
		name string
		cfg  func() Config
		want [3]bool // converged, timed out, canceled
	}{
		{"maxtime", func() Config { // TestMaxTimeStops
			cfg := baseConfig(prob, 4)
			cfg.Tol = 1e-300
			cfg.MaxIter = 1 << 30
			cfg.MaxTime = 0.003
			return cfg
		}, [3]bool{false, true, false}},
		{"cancel", func() Config { // TestCancelStopsVtimeRun
			cfg := cancelCfg(4)
			polls := 0
			cfg.Cancel = func() bool {
				polls++
				return polls > 200
			}
			return cfg
		}, [3]bool{false, false, true}},
		{"maxiter", func() Config {
			cfg := baseConfig(prob, 4)
			cfg.Tol = 1e-300
			cfg.MaxIter = 50
			return cfg
		}, [3]bool{}},
		{"converged", func() Config { return baseConfig(prob, 4) }, [3]bool{true, false, false}},
		{"stall", func() Config { // TestSyncModeStallsUnderBoundaryLoss
			cfg := baseConfig(prob, 4)
			cfg.Mode = SISC
			cfg.MaxTime = 50
			cfg.Faults = &fault.Plan{Seed: 3, Msg: fault.Rates{Drop: 0.3}, Kinds: FaultKindsBoundary()}
			return cfg
		}, [3]bool{}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var verdicts [2][3]bool
			var sealed [2]metrics.Outcome
			for i, runner := range []runenv.Runner{vtime.Runner{}, passThrough{vtime.Runner{}}} {
				cfg := row.cfg()
				cfg.Runner = runner
				cfg.Metrics = &metrics.Sink{}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				verdicts[i] = [3]bool{res.Converged, res.TimedOut, res.Canceled}
				sealed[i] = *cfg.Metrics.Manifest.Outcome
				sealed[i].WallSeconds = 0
			}
			if verdicts[0] != row.want || verdicts[1] != row.want {
				t.Errorf("converged, timed out, canceled = %v bare, %v wrapped, want %v", verdicts[0], verdicts[1], row.want)
			}
			if !reflect.DeepEqual(sealed[0], sealed[1]) {
				t.Errorf("sealed outcome bare %+v, wrapped %+v", sealed[0], sealed[1])
			}
		})
	}
}
