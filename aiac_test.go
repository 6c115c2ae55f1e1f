package aiac_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"aiac"
	"aiac/internal/loadbalance"
)

// TestPublicAPIQuickstart exercises the whole public surface the way a
// downstream user would: build a problem, pick a platform, solve with every
// mode, balance, validate, trace.
func TestPublicAPIQuickstart(t *testing.T) {
	params := aiac.BrusselatorParams(16, 0.05)
	params.T = 1
	prob := aiac.NewBrusselator(params)

	ref, _, err := aiac.BrusselatorReference(params)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []aiac.Mode{aiac.SISC, aiac.SIAC, aiac.AIACGeneral, aiac.AIAC} {
		cfg := aiac.Config{
			Mode: mode, P: 4, Problem: prob,
			Cluster: aiac.Homogeneous(4),
			Tol:     1e-7, MaxIter: 100000, Seed: 1,
		}
		if mode == aiac.AIAC {
			cfg.LB = aiac.DefaultLBPolicy()
		}
		res, err := aiac.Solve(cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !res.Converged {
			t.Fatalf("%v did not converge", mode)
		}
		worst := 0.0
		for j := range ref {
			for i := range ref[j] {
				worst = math.Max(worst, math.Abs(res.State[j][i]-ref[j][i]))
			}
		}
		if worst > 1e-4 {
			t.Fatalf("%v: solution off by %g", mode, worst)
		}
	}
}

func TestPublicAPIPlatforms(t *testing.T) {
	if aiac.Homogeneous(4).P() != 4 {
		t.Fatal("Homogeneous")
	}
	if aiac.Heterogeneous(6, 0.3, 1).P() != 6 {
		t.Fatal("Heterogeneous")
	}
	if aiac.HeteroGrid15(aiac.HeteroGridConfig{Seed: 1}).P() != 15 {
		t.Fatal("HeteroGrid15")
	}
	pol := aiac.DefaultLBPolicy()
	if !pol.Enabled || pol.Estimator != loadbalance.EstimatorResidual {
		t.Fatalf("unexpected default policy: %+v", pol)
	}
}

func TestPublicAPITrace(t *testing.T) {
	params := aiac.BrusselatorParams(8, 0.1)
	params.T = 0.5
	log := &aiac.TraceLog{}
	_, err := aiac.Solve(aiac.Config{
		Mode: aiac.AIAC, P: 2,
		Problem: aiac.NewBrusselator(params),
		Cluster: aiac.Homogeneous(2),
		Tol:     1e-6, MaxIter: 10000,
		Trace: log, TraceIters: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := aiac.Gantt(log, aiac.GanttConfig{Width: 60})
	if !strings.Contains(out, "#") {
		t.Fatalf("Gantt missing compute blocks:\n%s", out)
	}
}

// TestPublicAPIRunners reaches both in-process runtimes through the front
// door: RunSpec's backend field, translated by BuildConfig.
func TestPublicAPIRunners(t *testing.T) {
	for _, backend := range []string{"vtime", "rtime"} {
		cfg, err := aiac.RunSpec{
			Mode: "aiac", P: 2, Problem: "brusselator", N: 8, Dt: 0.1, T: 0.5,
			Tol: 1e-6, MaxIter: 10000, Backend: backend, MaxTime: 300,
		}.BuildConfig()
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res, err := aiac.Solve(cfg); err != nil || !res.Converged {
			t.Fatalf("%s runner: %v / %+v", backend, err, res)
		}
	}
}

// TestPublicAPISequentialBaseline solves the Poisson problem with SISC on a
// single node — the sequential Jacobi sweep — against the exact solution.
func TestPublicAPISequentialBaseline(t *testing.T) {
	pp := aiac.PoissonParams{N: 16}
	res, err := aiac.Solve(aiac.Config{
		Mode: aiac.SISC, P: 1, Problem: aiac.NewPoisson(pp),
		Cluster: aiac.Homogeneous(1),
		Tol:     1e-12, MaxIter: 100000, Seed: 1,
	})
	if err != nil || !res.Converged {
		t.Fatalf("solve: %v / %+v", err, res)
	}
	for i := 0; i < pp.N; i++ {
		if d := math.Abs(res.State[i][0] - pp.Exact(i+1)); d > 1e-9 {
			t.Fatalf("point %d off by %g", i, d)
		}
	}
}

// TestPublicAPISurface touches every facade constructor and helper so the
// re-export layer stays wired to the internals.
func TestPublicAPISurface(t *testing.T) {
	if aiac.NewHeat(aiac.HeatParams(8, 0.01)).Components() != 8 {
		t.Fatal("heat")
	}
	if aiac.NewPoisson(aiac.PoissonParams{N: 8}).Components() != 8 {
		t.Fatal("poisson")
	}
	if aiac.NewPoisson2D(aiac.Poisson2DParams{N: 8}).Components() != 8 {
		t.Fatal("poisson2d")
	}
	// telemetry samples + JSON export through the facade types
	params := aiac.BrusselatorParams(8, 0.05)
	params.T = 0.25
	sink := &aiac.MetricsSink{}
	res, err := aiac.Solve(aiac.Config{
		Mode: aiac.AIAC, P: 2, Problem: aiac.NewBrusselator(params),
		Cluster: aiac.Heterogeneous(2, 0.5, 3),
		Tol:     1e-8, MaxIter: 100000, Metrics: sink,
		Detection: aiac.DetectRing, Seed: 2,
	})
	if err != nil || !res.Converged {
		t.Fatalf("solve: %v", err)
	}
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		row := sink.Samples(r)
		if len(row) == 0 || row[len(row)-1].Count != res.FinalCount[r] {
			t.Fatalf("node %d: samples do not end at the final count %d", r, res.FinalCount[r])
		}
	}
}

// TestFacadeNamesAreUsed keeps the public API a decision: every exported
// name of aiac.go must be named by a command, an example or the benchmark
// (an aiac.X selector in a non-test file under cmd/, examples/ or bench/).
func TestFacadeNamesAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "aiac.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported = append(exported, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported = append(exported, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exported = append(exported, n.Name)
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, dir := range []string{"cmd", "examples", "bench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			local := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == `"aiac"` {
					local = "aiac"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var unused []string
	for _, name := range exported {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(exported) == 0 || len(unused) > 0 {
		t.Errorf("%d exported facade names, unused by cmd/, examples/ and bench/: %s",
			len(exported), strings.Join(unused, ", "))
	}
}
