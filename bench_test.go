package aiac_test

// Off/on benchmark pairs for the taxes bench/ does not measure: each pair
// runs the same solve twice in one process, once without and once with an
// observability feature, so the gap between the two rows is that feature's
// cost on the host that runs them. `make bench` runs every benchmark once (a
// compile and convergence check); compare a pair with a larger -benchtime.

import (
	"io"
	"net/http"
	"testing"
	"time"

	"aiac"
	"aiac/internal/metrics"
	"aiac/internal/rtime"
)

// BenchmarkAIACSolve measures a complete load-balanced AIAC solve on the
// virtual-time runtime (4 nodes, 32 cells) with telemetry disabled.
func BenchmarkAIACSolve(b *testing.B) { benchVirtualSolve(b, false) }

// BenchmarkAIACSolveMetrics is BenchmarkAIACSolve with the telemetry sink
// attached (every-iteration sampling): the price of full observability,
// compared against the zero-cost disabled path above.
func BenchmarkAIACSolveMetrics(b *testing.B) { benchVirtualSolve(b, true) }

func benchVirtualSolve(b *testing.B, withMetrics bool) {
	params := aiac.BrusselatorParams(32, 0.05)
	params.T = 1
	prob := aiac.NewBrusselator(params)
	for i := 0; i < b.N; i++ {
		cfg := aiac.Config{
			Mode: aiac.AIAC, P: 4, Problem: prob,
			Cluster: aiac.Homogeneous(4),
			Tol:     1e-7, MaxIter: 100000,
			LB: aiac.DefaultLBPolicy(), Seed: int64(i),
		}
		if withMetrics {
			cfg.Metrics = &metrics.Sink{}
		}
		res, err := aiac.Solve(cfg)
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
