package report

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aiac/internal/brusselator"
	"aiac/internal/engine"
	"aiac/internal/grid"
	"aiac/internal/loadbalance"
	"aiac/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRun executes the fixed-seed 4-node Brusselator run the dashboard
// golden file pins. vtime runs are bit-deterministic, so everything except
// the host fields of the manifest reproduces exactly on any machine.
func goldenRun(t *testing.T, lb bool, name string) *metrics.Run {
	t.Helper()
	params := brusselator.DefaultParams(32, 0.05)
	params.T = 1
	s := &metrics.Sink{}
	s.Manifest.Name = name
	s.Manifest.Problem = "brusselator-32"
	s.Manifest.Cluster = "heterogeneous-4"
	// pin the host fields so the rendered output is machine-independent
	s.Manifest.CreatedAt = "2026-01-01T00:00:00Z"
	s.Manifest.GitRev = "000000000000"
	s.Manifest.GoVersion = "go0.0"
	s.Manifest.OS = "any"
	s.Manifest.Arch = "any"
	cfg := engine.Config{
		Mode:    engine.AIAC,
		P:       4,
		Problem: brusselator.New(params),
		Cluster: grid.Heterogeneous(4, 0.3, 5),
		Tol:     1e-6,
		MaxIter: 50000,
		Seed:    7,
		Metrics: s,
	}
	if lb {
		cfg.LB = loadbalance.DefaultPolicy()
		cfg.LB.Period = 10
		cfg.LB.MinKeep = 2
	}
	res, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("golden run did not converge")
	}
	s.Manifest.Outcome.WallSeconds = 0 // host-dependent
	return s.Snapshot()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/report -update` to create it)", err)
	}
	if string(want) != got {
		t.Errorf("%s drifted from the golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestDashboardGolden(t *testing.T) {
	run := goldenRun(t, true, "golden-lb")
	checkGolden(t, "dashboard.golden", Render(run, Options{}))
}

func TestDiffGolden(t *testing.T) {
	off := goldenRun(t, false, "lb-off")
	on := goldenRun(t, true, "lb-on")
	checkGolden(t, "diff.golden", RenderDiff(off, on, Options{}))
}

func TestRenderSections(t *testing.T) {
	run := goldenRun(t, true, "sections")
	out := Render(run, Options{Width: 50, Height: 10})
	for _, want := range []string{
		"residual decay",
		"load distribution",
		"messaging",
		"per-node summary",
		"convergence timeline",
		"CONVERGED",
		"LB on",
		"HALT broadcast",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}

// TestDiffShowsFigure5Relationship checks the paper's qualitative claim on
// this heterogeneous platform: balancing moves components (nonzero transfer
// count, shrinking load spread) and does not slow the solve down by more
// than a small factor — the machinery behind Figure 5's time-per-processors
// comparison.
func TestDiffShowsFigure5Relationship(t *testing.T) {
	off := goldenRun(t, false, "lb-off")
	on := goldenRun(t, true, "lb-on")
	if on.Manifest.Outcome.LBTransfers == 0 {
		t.Fatal("LB-on run made no transfers")
	}
	if off.Manifest.Outcome.LBTransfers != 0 {
		t.Fatal("LB-off run made transfers")
	}
	// the balanced run must actually skew the distribution away from the
	// uniform initial partition at some point
	end := runDuration(on)
	grid := uniformGrid(end, 32)
	spread := loadSpread(on, grid)
	moved := false
	for _, v := range spread {
		if !math.IsNaN(v) && v > 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("balanced run shows no load movement in the telemetry")
	}
	out := RenderDiff(off, on, Options{})
	if !strings.Contains(out, "load imbalance over time") || !strings.Contains(out, "outcomes") {
		t.Fatalf("diff output incomplete:\n%s", out)
	}
}

func TestResample(t *testing.T) {
	ts := []float64{1, 2, 4}
	vs := []float64{10, 20, 40}
	got := resample(ts, vs, []float64{0.5, 1, 3, 5})
	if !math.IsNaN(got[0]) {
		t.Fatalf("before first sample: %g, want NaN", got[0])
	}
	for i, want := range []float64{10, 20, 40} {
		if got[i+1] != want {
			t.Fatalf("resample[%d] = %g, want %g", i+1, got[i+1], want)
		}
	}
}

// TestRenderSimSection: the host line renders, and a stored manifest that
// still carries a sim section (written before the windowed scheduler was
// removed) renders without one.
func TestRenderSimSection(t *testing.T) {
	m := metrics.Manifest{
		Name:       "par",
		NumCPU:     4,
		GoMaxProcs: 4,
		GoVersion:  "go0.0",
		OS:         "any",
		Arch:       "any",
		CreatedAt:  "2026-01-01T00:00:00Z",
		Sim:        &metrics.SimManifest{Windows: 200, SingleGroupWindows: 3, MeanWindowWidth: 9e-3},
	}
	out := Render(&metrics.Run{Manifest: m}, Options{})
	if !strings.Contains(out, "4 cpus, gomaxprocs 4") {
		t.Errorf("host line missing:\n%s", out)
	}
	if strings.Contains(out, "sim:") {
		t.Errorf("sim section still rendered:\n%s", out)
	}
}

func TestRenderEmptyRun(t *testing.T) {
	// a manifest-only file (run crashed before any samples) must not panic
	out := Render(&metrics.Run{Manifest: metrics.Manifest{Name: "empty"}}, Options{})
	if !strings.Contains(out, "(no samples)") {
		t.Fatalf("empty run rendering:\n%s", out)
	}
	diff := RenderDiff(&metrics.Run{}, &metrics.Run{}, Options{})
	if diff == "" {
		t.Fatal("empty diff")
	}
}
