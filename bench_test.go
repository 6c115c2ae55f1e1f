package aiac_test

// Benchmarks regenerating every table and figure of the paper (at the
// experiments' Quick scale so `go test -bench=.` stays tractable), plus
// micro-benchmarks of the numerical and runtime kernels. Run
// `go run ./cmd/paperexp` for the full-scale reproductions recorded in
// EXPERIMENTS.md.

import (
	"io"
	"net/http"
	"testing"
	"time"

	"aiac"
	"aiac/internal/experiments"
	"aiac/internal/linalg"
	"aiac/internal/metrics"
	"aiac/internal/rtime"
	"aiac/internal/runenv"
	"aiac/internal/vtime"
)

func reportShape(b *testing.B, reports ...experiments.Report) {
	b.Helper()
	for _, r := range reports {
		if !r.Pass {
			b.Logf("shape divergence in %s: %s", r.ID, r.Measured)
		}
	}
}

// BenchmarkFig1to4FlowFigures regenerates the execution-flow diagrams of
// Figures 1-4 (SISC/SIAC/AIAC-general/AIAC-variant Gantt charts).
func BenchmarkFig1to4FlowFigures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportShape(b, experiments.FlowFigures(experiments.Quick)...)
	}
}

// BenchmarkFig5Homogeneous regenerates Figure 5: execution time vs number
// of processors with and without load balancing on the homogeneous cluster.
func BenchmarkFig5Homogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportShape(b, experiments.Fig5(experiments.Quick))
	}
}

// BenchmarkTable1Heterogeneous regenerates Table 1: balanced vs
// non-balanced AIAC on the 15-machine 3-site heterogeneous grid.
func BenchmarkTable1Heterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportShape(b, experiments.Table1(experiments.Quick))
	}
}

// BenchmarkModeMatrix regenerates the §6 cross-context claims (X1).
func BenchmarkModeMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportShape(b, experiments.ModeMatrix(experiments.Quick))
	}
}

// BenchmarkLBFrequency regenerates the balancing-frequency sweep (X2).
func BenchmarkLBFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportShape(b, experiments.LBFrequency(experiments.Quick))
	}
}

// BenchmarkLBAccuracy regenerates the λ-vs-network sweep (X3).
func BenchmarkLBAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportShape(b, experiments.LBAccuracy(experiments.Quick))
	}
}

// BenchmarkLBEstimator regenerates the load-estimator comparison (X4).
func BenchmarkLBEstimator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportShape(b, experiments.LBEstimator(experiments.Quick))
	}
}

// BenchmarkFamineGuard regenerates the ThresholdData ablation (X5).
func BenchmarkFamineGuard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportShape(b, experiments.FamineGuard(experiments.Quick))
	}
}

// BenchmarkLBFamilies regenerates the §3 balancing-algorithm comparison (X6).
func BenchmarkLBFamilies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportShape(b, experiments.LBFamilies())
	}
}

// --- kernel micro-benchmarks -------------------------------------------

// BenchmarkBrusselatorSweep measures one waveform sweep of a 64-cell
// Brusselator (the inner loop every engine iteration runs): fused
// two-cell updates, exactly as the engines sweep Jacobi problems.
func BenchmarkBrusselatorSweep(b *testing.B) {
	params := aiac.BrusselatorParams(64, 0.02)
	params.T = 1
	prob := aiac.NewBrusselator(params)
	m := prob.Components()
	old := make([][]float64, m)
	cur := make([][]float64, m)
	for j := 0; j < m; j++ {
		old[j] = prob.Init(j)
		cur[j] = make([]float64, prob.TrajLen())
	}
	get := func(i int) []float64 { return old[i] }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j+1 < m; j += 2 {
			prob.UpdatePair(j, j+1, old[j], old[j+1], get, cur[j], cur[j+1])
		}
		if m%2 != 0 {
			prob.Update(m-1, old[m-1], get, cur[m-1])
		}
	}
}

// BenchmarkAIACSolve measures a complete load-balanced AIAC solve on the
// virtual-time runtime (4 nodes, 32 cells).
func BenchmarkAIACSolve(b *testing.B) {
	params := aiac.BrusselatorParams(32, 0.05)
	params.T = 1
	prob := aiac.NewBrusselator(params)
	for i := 0; i < b.N; i++ {
		res, err := aiac.Solve(aiac.Config{
			Mode: aiac.AIAC, P: 4, Problem: prob,
			Cluster: aiac.Homogeneous(4),
			Tol:     1e-7, MaxIter: 100000,
			LB: aiac.DefaultLBPolicy(), Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkAIACSolveMetrics is BenchmarkAIACSolve with the telemetry sink
// attached (every-iteration sampling): the price of full observability,
// compared against the zero-cost disabled path above.
func BenchmarkAIACSolveMetrics(b *testing.B) {
	params := aiac.BrusselatorParams(32, 0.05)
	params.T = 1
	prob := aiac.NewBrusselator(params)
	for i := 0; i < b.N; i++ {
		res, err := aiac.Solve(aiac.Config{
			Mode: aiac.AIAC, P: 4, Problem: prob,
			Cluster: aiac.Homogeneous(4),
			Tol:     1e-7, MaxIter: 100000,
			LB: aiac.DefaultLBPolicy(), Seed: int64(i),
			Metrics: &metrics.Sink{},
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

// benchRealSolve runs one load-balanced AIAC solve on the real goroutine
// runtime, optionally with the live observability plane up and a client
// scraping /metrics + /healthz throughout the solve at a period chosen so
// every run sees several scrapes (Prometheus's production default is 15 s
// between scrapes; a busy-loop scraper would just measure CPU contention on
// single-core hosts). The ns/op gap between the off and on rows is the
// plane's overhead on a live run; the acceptance bound is <5%.
func benchRealSolve(b *testing.B, withHTTP bool) {
	params := aiac.BrusselatorParams(128, 0.02)
	params.T = 1
	prob := aiac.NewBrusselator(params)
	totalScrapes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Server start/stop happens outside the timed section: the bound
		// under test is the plane's cost DURING a live run, not the one-off
		// listener setup.
		sink := &metrics.Sink{}
		var srv *aiac.ObsServer
		stop := make(chan struct{})
		scraped := make(chan int)
		if withHTTP {
			var err error
			srv, err = aiac.ServeObs("127.0.0.1:0", sink)
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				n := 0
				client := &http.Client{Timeout: time.Second}
				tick := time.NewTicker(200 * time.Microsecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						scraped <- n
						return
					case <-tick.C:
					}
					for _, path := range []string{"/metrics", "/healthz"} {
						resp, err := client.Get("http://" + srv.Addr() + path)
						if err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
							n++
						}
					}
				}
			}()
		}
		b.StartTimer()
		res, err := aiac.Solve(aiac.Config{
			Mode: aiac.AIAC, P: 4, Problem: prob,
			Cluster: aiac.Homogeneous(4),
			Tol:     1e-7, MaxIter: 100000,
			LB: aiac.DefaultLBPolicy(), Seed: int64(i),
			Metrics: sink,
			Runner:  rtime.Runner{Speedup: 200}, MaxTime: 3600,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
		b.StopTimer()
		if withHTTP {
			close(stop)
			n := <-scraped
			if n == 0 {
				b.Fatal("scraper never reached the observability plane")
			}
			totalScrapes += n
			if err := srv.Close(time.Second); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
	if withHTTP {
		b.ReportMetric(float64(totalScrapes)/float64(b.N), "scrapes/op")
	}
}

// BenchmarkObservabilityPlane pins the cost of the -http live plane on a
// real-runtime solve: http=off is the baseline, http=on adds the server plus
// a continuous /metrics + /healthz scraper.
func BenchmarkObservabilityPlane(b *testing.B) {
	b.Run("http=off", func(b *testing.B) { benchRealSolve(b, false) })
	b.Run("http=on", func(b *testing.B) { benchRealSolve(b, true) })
}

// BenchmarkBandedFactorSolve measures the banded LU used by the sequential
// reference integrator (dimension 256, bandwidths 2). The matrix template
// is built once outside the timer; each iteration restores it with CopyFrom
// and re-factors, so the number measures the factor+solve kernel rather
// than NewBanded allocation and band filling.
func BenchmarkBandedFactorSolve(b *testing.B) {
	const n = 256
	template := linalg.NewBanded(n, 2, 2)
	rhs0 := make([]float64, n)
	for r := 0; r < n; r++ {
		template.Set(r, r, 8)
		for d := 1; d <= 2; d++ {
			if r >= d {
				template.Set(r, r-d, -1)
			}
			if r+d < n {
				template.Set(r, r+d, -1)
			}
		}
		rhs0[r] = float64(r % 7)
	}
	m := linalg.NewBanded(n, 2, 2)
	rhs := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CopyFrom(template)
		copy(rhs, rhs0)
		if err := m.Factor(); err != nil {
			b.Fatal(err)
		}
		m.Solve(rhs)
	}
}

// BenchmarkVirtualTimeMessaging measures the deterministic scheduler's
// event throughput (two processes exchanging 10k messages).
func BenchmarkVirtualTimeMessaging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := runenv.Config{
			Delay: func(_, _, _ int, _ float64) float64 { return 1e-5 },
		}
		vtime.New(cfg).Run([]runenv.Body{
			func(env runenv.Env) {
				for k := 0; k < 10000; k++ {
					env.Send(1, k, nil, 64)
					if _, ok := env.RecvWait(); !ok {
						return
					}
				}
			},
			func(env runenv.Env) {
				for k := 0; k < 10000; k++ {
					if _, ok := env.RecvWait(); !ok {
						return
					}
					env.Send(0, k, nil, 64)
				}
			},
		})
	}
}

// BenchmarkFullHorizon regenerates the X7 windowed full-horizon experiment.
func BenchmarkFullHorizon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportShape(b, experiments.FullHorizon(experiments.Quick))
	}
}

// BenchmarkMapping regenerates the X8 logical-organization experiment.
func BenchmarkMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportShape(b, experiments.Mapping(experiments.Quick))
	}
}
