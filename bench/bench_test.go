package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"aiac/internal/brusselator"
)

func TestPercentileIsNearestRank(t *testing.T) {
	ten := []float64{7, 1, 10, 3, 9, 2, 8, 4, 6, 5}
	sixty := make([]float64, 60)
	for i := range sixty {
		sixty[i] = float64(60 - i)
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 10, 1}, {ten, 11, 2}, {ten, 25, 3}, {ten, 50, 5}, {ten, 90, 9}, {ten, 99, 10}, {ten, 100, 10},
		{sixty, 10, 6}, {sixty, 50, 30},
		{[]float64{4.5}, 10, 4.5}, {[]float64{2, 1}, 50, 1}, {nil, 10, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if ten[0] != 7 {
		t.Error("percentile sorted its argument in place")
	}
	if got := lowest(ten); got != 1 {
		t.Errorf("lowest(%v) = %v, want 1", ten, got)
	}
	if got := lowest(nil); got != 0 {
		t.Errorf("lowest(nil) = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	cases := []struct {
		name  string
		spans []span
		want  map[int]float64
	}{
		{
			name: "nesting: a span keeps what its children do not cover",
			spans: []span{
				{ID: 1, Name: "harness.op", Start: 0, End: 10},
				{ID: 2, Parent: 1, Name: "engine.solve", Start: 1, End: 4},
				{ID: 3, Parent: 1, Name: "harness.check", Start: 6, End: 8},
				{ID: 4, Parent: 2, Name: "solver.update", Start: 2, End: 3},
			},
			want: map[int]float64{1: 5, 2: 2, 3: 2, 4: 1},
		},
		{
			name: "overlap: side-by-side children share the wall they cover",
			spans: []span{
				{ID: 1, Name: "harness.op", Start: 0, End: 10},
				{ID: 2, Parent: 1, Name: "dtime.worker", Start: 0, End: 6},
				{ID: 3, Parent: 1, Name: "dtime.worker", Start: 4, End: 10},
			},
			want: map[int]float64{1: 0, 2: 5, 3: 5},
		},
		{
			name: "children are clipped to their parent",
			spans: []span{
				{ID: 1, Name: "harness.op", Start: 2, End: 6},
				{ID: 2, Parent: 1, Name: "obs.submit", Start: 0, End: 3},
				{ID: 3, Parent: 1, Name: "obs.seal", Start: 5, End: 9},
			},
			want: map[int]float64{1: 2, 2: 1, 3: 1},
		},
		{
			name: "aggregates cover their busy time, at most the parent",
			spans: []span{
				{ID: 1, Name: "harness.op", Start: 0, End: 10},
				{ID: 2, Parent: 1, Name: "solver.update", Calls: 100, Busy: 4},
				{ID: 3, Name: "harness.op", Op: 1, Start: 10, End: 20},
				{ID: 4, Parent: 3, Name: "engine.ranks", Op: 1, Calls: 2, Busy: 18},
				{ID: 5, Parent: 4, Name: "solver.update", Op: 1, Calls: 50, Busy: 6},
				{ID: 6, Parent: 4, Name: "rtime.work_wait", Op: 1, Calls: 50, Busy: 9},
			},
			// The ranks ran side by side for 18 rank-seconds in 10 s of
			// wall: a third of it kernel, half of it waiting, a sixth
			// their own.
			want: map[int]float64{1: 6, 2: 4, 3: 0, 4: 10.0 / 6, 5: 10.0 / 3, 6: 5},
		},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		var sum, roots float64
		for _, s := range c.spans {
			if !near(got[s.ID], c.want[s.ID]) {
				t.Errorf("%s: self time of span %d (%s) = %v, want %v", c.name, s.ID, s.Name, got[s.ID], c.want[s.ID])
			}
			sum += got[s.ID]
			if s.Parent == 0 {
				roots += s.dur()
			}
		}
		if !near(sum, roots) {
			t.Errorf("%s: self times sum to %v, the op spans to %v", c.name, sum, roots)
		}
		var layers float64
		for _, v := range layerSelf(c.spans) {
			layers += v
		}
		if !near(layers, roots) {
			t.Errorf("%s: layer self times sum to %v, the op spans to %v", c.name, layers, roots)
		}
	}
}

func testHarness(t *testing.T, seed int64) *harness {
	t.Helper()
	h, err := newHarness(seed)
	if err != nil {
		t.Fatal(err)
	}
	h.preseed = 8
	t.Cleanup(func() {
		h.cleanup()
		if _, err := os.Stat(h.root); !os.IsNotExist(err) {
			t.Errorf("root %s is still there after cleanup (%v)", h.root, err)
		}
	})
	return h
}

func openSolver(t *testing.T, h *harness, name string) *solverSession {
	t.Helper()
	s, err := findWorkload(name).open(h, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s.(*solverSession)
}

// The decorators of the traced pass must not change what the program
// computes: same model time, same state, same iteration count.
func TestDecoratedSolveIsBitIdentical(t *testing.T) {
	h := testHarness(t, 1)
	s := openSolver(t, h, "vt-table1")
	cfg := s.config()
	plain, err := s.solve(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	ot := tr.begin()
	traced, _, err := ot.solve(s, cfg)
	ot.end()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Time != traced.Time || plain.TotalIters != traced.TotalIters {
		t.Errorf("decorated solve: time %v iters %d, plain: time %v iters %d", traced.Time, traced.TotalIters, plain.Time, plain.TotalIters)
	}
	if d := brusselator.MaxTrajDiff(plain.State, traced.State); d != 0 {
		t.Errorf("decorated solve's state differs from the plain one's by %g", d)
	}
	if tr.kernelCalls == 0 || tr.vtEvents == 0 {
		t.Errorf("decorators saw %d kernel calls and %d runtime calls", tr.kernelCalls, tr.vtEvents)
	}
}

func TestSeedMakesTheInputs(t *testing.T) {
	speeds := func(seed int64) []float64 {
		s := openSolver(t, testHarness(t, seed), "vt-table1")
		var out []float64
		for _, n := range s.cluster.Nodes {
			out = append(out, n.Speed)
		}
		return out
	}
	if !reflect.DeepEqual(speeds(1), speeds(1)) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(speeds(1), speeds(2)) {
		t.Error("seeds 1 and 2 gave the same inputs")
	}
	s := openSolver(t, testHarness(t, 2), "vt-table1")
	if err := s.prepare(1); err != nil {
		t.Fatal(err)
	}
	if r := s.op(0, nil); r.err != nil {
		t.Errorf("seed 2: %v", r.err)
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func wantMetrics(specs []metricSpec) map[string]string {
	m := map[string]string{}
	for _, s := range specs {
		m[s.name] = s.unit
	}
	return m
}

// Every workload must print, in each pass, exactly the metrics BENCHMARK.json
// lists for that pass, with its units. The solver workloads run here on
// smaller grids than the real ones: this test is about what is emitted.
func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, listed []benchmarkMetric, specs []metricSpec, bounded bool) {
		if len(listed) != len(specs) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark has %d", len(listed), kind, len(specs))
			return
		}
		for i, m := range listed {
			better := "lower"
			if higherIsBetter[specs[i].name] {
				better = "higher"
			}
			if m.Name != specs[i].name || m.Unit != specs[i].unit || m.Better != better || (m.Bound != nil) != bounded {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, m, specs[i])
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)

	for _, w := range workloads {
		if w.solver != nil {
			small := *w.solver
			small.params.N = 32
			w.solver = &small
		}
		for _, traced := range []bool{false, true} {
			h := testHarness(t, 1)
			rep, err := runWorkload(h, &w, runOpts{ops: 2 * w.clients, chunks: 1, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res := rep.result()
			want := wantMetrics(endToEnd)
			if traced {
				want = wantMetrics(perLayer)
				for name := range rep.perLayerValues() {
					if _, ok := want[name]; !ok {
						t.Errorf("%s: the traced pass computes %q, which BENCHMARK.json does not list", w.name, name)
					}
				}
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: emitted metrics %v, want %v", w.name, traced, got, want)
			}
			// Real-time solves can fail on a starved host (ROADMAP item
			// 0); the benchmark counts that, and so does not this test.
			if virtual := w.solver == nil || !w.solver.real; virtual && res.Failed > 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", w.name, traced, res.Failed, res.Attempted, append(rep.plain.errs, rep.traced.errs...))
			}
			if res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d ops", w.name, traced, res.Attempted)
			}
		}
	}
}
