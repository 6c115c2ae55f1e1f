package engine

import (
	"bytes"
	"testing"

	"aiac/internal/fault"
	"aiac/internal/grid"
	"aiac/internal/loadbalance"
	"aiac/internal/metrics"
)

func TestMetricsCollection(t *testing.T) {
	prob, _ := smallBruss()
	s := &metrics.Sink{}
	s.Manifest.Name = "unit-run"
	s.Manifest.Problem = "brusselator"
	cfg := baseConfig(prob, 4)
	cfg.Cluster = grid.Heterogeneous(4, 0.3, 5)
	cfg.LB = loadbalance.DefaultPolicy()
	cfg.LB.Period = 5
	cfg.LB.MinKeep = 2
	cfg.Metrics = s
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if s.Nodes() != 4 {
		t.Fatalf("sink holds %d node series, want 4", s.Nodes())
	}
	for r := 0; r < 4; r++ {
		row := s.Samples(r)
		if len(row) == 0 {
			t.Fatalf("node %d has no samples", r)
		}
		for i := 1; i < len(row); i++ {
			if row[i].T <= row[i-1].T {
				t.Fatalf("node %d: time not increasing at sample %d", r, i)
			}
			if row[i].Iter <= row[i-1].Iter {
				t.Fatalf("node %d: iteration not increasing at sample %d", r, i)
			}
			if row[i].Work < row[i-1].Work || row[i].Busy < row[i-1].Busy {
				t.Fatalf("node %d: cumulative fields decreased at sample %d", r, i)
			}
			if row[i].IdleFrac < 0 || row[i].IdleFrac > 1 {
				t.Fatalf("node %d: IdleFrac = %g out of range", r, row[i].IdleFrac)
			}
		}
		if got := row[len(row)-1].Count; got != res.FinalCount[r] {
			t.Fatalf("node %d: last sampled count %d vs final %d", r, got, res.FinalCount[r])
		}
	}
	// convergence timeline: every node flips to converged at least once, the
	// detector opens verification rounds and broadcasts the halt
	ev, _ := s.Events()
	conv := map[int]bool{}
	sawRound, sawHalt := false, false
	for _, e := range ev {
		switch e.Name {
		case "conv":
			conv[e.Node] = true
		case "verify-round":
			sawRound = true
		case "halt":
			sawHalt = true
			if e.Node != -1 {
				t.Fatalf("halt event from node %d, want detector (-1)", e.Node)
			}
		}
	}
	for r := 0; r < 4; r++ {
		if !conv[r] {
			t.Fatalf("node %d never emitted a conv event", r)
		}
	}
	if !sawRound || !sawHalt {
		t.Fatalf("detector timeline incomplete: round=%v halt=%v", sawRound, sawHalt)
	}
	// runtime aggregates
	if s.Delivered.Value() == 0 || s.Control.Value() == 0 {
		t.Fatalf("message counters empty: data=%d control=%d", s.Delivered.Value(), s.Control.Value())
	}
	if s.Latency.Snapshot().Count == 0 {
		t.Fatal("latency histogram empty")
	}
	// manifest: config echo plus sealed outcome
	m := s.Manifest
	if m.Name != "unit-run" || m.Problem != "brusselator" {
		t.Fatalf("caller-set manifest fields lost: %+v", m)
	}
	if m.Mode != "AIAC" || m.P != 4 || m.Tol != cfg.Tol || m.Seed != cfg.Seed {
		t.Fatalf("config echo wrong: %+v", m)
	}
	if m.LB == nil || m.LB.Period != 5 || m.LB.Estimator != "residual" {
		t.Fatalf("LB echo wrong: %+v", m.LB)
	}
	if m.Outcome == nil {
		t.Fatal("outcome not sealed")
	}
	if !m.Outcome.Converged || m.Outcome.TotalIters != res.TotalIters || m.Outcome.Time != res.Time {
		t.Fatalf("outcome mismatch: %+v vs result %+v", m.Outcome, res)
	}
	if m.Outcome.WallSeconds <= 0 {
		t.Fatal("wall time not recorded")
	}
	// the whole thing must export and re-import
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	run, err := metrics.ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Samples) != 4 || run.Manifest.Outcome == nil {
		t.Fatalf("round-trip lost data: %d nodes", len(run.Samples))
	}
}

// TestMetricsSamplesEverySweep holds the per-node trajectories the sink
// records at Period 0 with a Cap above the run's iteration count: one sample
// per sweep, time and work monotone, the last count the final one, and the
// balancer's transfers visible as count changes.
func TestMetricsSamplesEverySweep(t *testing.T) {
	prob, _ := smallBruss()
	cfg := baseConfig(prob, 4)
	cfg.Cluster = grid.Heterogeneous(4, 0.3, 5)
	cfg.LB = loadbalance.DefaultPolicy()
	cfg.LB.Period = 5
	cfg.LB.MinKeep = 2
	s := &metrics.Sink{Cap: cfg.MaxIter + 1}
	cfg.Metrics = s
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	changed := false
	for r := 0; r < 4; r++ {
		row := s.Samples(r)
		if len(row) != res.NodeIters[r] {
			t.Fatalf("node %d: %d samples for %d sweeps", r, len(row), res.NodeIters[r])
		}
		for i := 1; i < len(row); i++ {
			if row[i].T < row[i-1].T || row[i].Work < row[i-1].Work {
				t.Fatalf("node %d: non-monotone series at %d", r, i)
			}
			if row[i].Iter <= row[i-1].Iter {
				t.Fatalf("node %d: iteration index not increasing at %d", r, i)
			}
			if row[i].Count != row[0].Count {
				changed = true
			}
		}
		if got := row[len(row)-1].Count; got != res.FinalCount[r] {
			t.Fatalf("node %d: last sampled count %d vs final %d", r, got, res.FinalCount[r])
		}
	}
	if res.LBTransfers == 0 {
		t.Fatal("the heterogeneous platform moved no work")
	}
	if !changed {
		t.Fatalf("%d transfers happened but no count change was sampled", res.LBTransfers)
	}
}

func TestMetricsDeterministicUnderVtime(t *testing.T) {
	prob, _ := smallBruss()
	export := func() []byte {
		s := &metrics.Sink{}
		cfg := baseConfig(prob, 3)
		cfg.Metrics = s
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		s.Manifest.Outcome.WallSeconds = 0 // the only host-dependent field
		var buf bytes.Buffer
		if err := s.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatal("telemetry export differs across identical vtime runs")
	}
}

func TestMetricsFaultAttribution(t *testing.T) {
	prob, _ := smallBruss()
	s := &metrics.Sink{}
	cfg := baseConfig(prob, 4)
	cfg.MaxIter = 40000
	cfg.Faults = &fault.Plan{Seed: 9, Msg: fault.Rates{Drop: 0.05, Dup: 0.02}}
	cfg.Metrics = s
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	injected := res.FaultStats.Dropped + res.FaultStats.Duplicated
	if injected == 0 {
		t.Skip("plan injected nothing at this seed")
	}
	var counted uint64
	for r := 0; r < 4; r++ {
		counted += s.FaultCount(r)
	}
	if counted == 0 {
		t.Fatalf("%d faults injected but none attributed to nodes", injected)
	}
	if counted > injected {
		t.Fatalf("attributed %d faults, more than the %d injected", counted, injected)
	}
	if s.Manifest.Outcome == nil || s.Manifest.Outcome.Faults != res.FaultStats {
		t.Fatalf("fault stats not sealed into the manifest")
	}
}

// TestMetricsSamplePeriodThins checks that a coarse Period reduces sample
// volume without losing run coverage.
func TestMetricsSamplePeriodThins(t *testing.T) {
	prob, _ := smallBruss()
	run := func(period float64) (n int, span float64) {
		s := &metrics.Sink{Period: period}
		cfg := baseConfig(prob, 2)
		cfg.Metrics = s
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		row := s.Samples(0)
		if len(row) == 0 {
			t.Fatal("no samples")
		}
		return len(row), row[len(row)-1].T - row[0].T
	}
	nFine, spanFine := run(0)
	nCoarse, spanCoarse := run(spanFine / 8)
	if nCoarse >= nFine {
		t.Fatalf("period did not thin: %d coarse vs %d fine", nCoarse, nFine)
	}
	if spanCoarse < spanFine/2 {
		t.Fatalf("coarse sampling lost coverage: %g vs %g", spanCoarse, spanFine)
	}
}
