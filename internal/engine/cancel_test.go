package engine

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aiac/internal/brusselator"
	"aiac/internal/grid"
	"aiac/internal/metrics"
	"aiac/internal/rtime"
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
}

// TestMaxTimeStopsRtimeRun pins that a MaxTime stop is attributed on a
// runner other than the bare vtime.Runner, whose scheduler records it (see
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
