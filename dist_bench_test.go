package aiac_test

// BenchmarkDistTraceOverhead pins the cost of distributed tracing: the same
// loopback dist solve with Config.Trace off and on. The trace=on op adds
// per-event logging on every worker, the trace's ride home in each outcome
// blob and the coordinator-side federation. The gap between the pair's ns/op is
// the tracing tax, which must stay under 5%:
//
//	go test -run NONE -bench DistTraceOverhead -benchtime 5x .

import (
	"fmt"
	"testing"
	"time"

	"aiac"
	"aiac/internal/dtime"
)

func BenchmarkDistTraceOverhead(b *testing.B) {
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("trace=%v", traced), func(b *testing.B) {
			params := aiac.BrusselatorParams(64, 0.05)
			params.T = 1
			prob := aiac.NewBrusselator(params)
			for i := 0; i < b.N; i++ {
				// Lockstep mode: the iteration rate (and so the event rate)
				// is pinned by the barrier, not by how fast a free-running
				// async loop can spin on loopback — the honest baseline for
				// a per-event overhead claim. Speedup 1 (model time = wall
				// time) makes each sweep cost its real compute wall, as on
				// a production cluster; at high speedups the sweep collapses
				// to the loopback RTT and the fixed per-event logging and
				// export cost would be divided by an artificially tiny op.
				cfg := aiac.Config{
					Mode: aiac.SISC, P: 4, Problem: prob,
					Cluster: aiac.Homogeneous(4),
					Tol:     1e-7, MaxIter: 500000, MaxTime: 5000, Seed: 1,
				}
				if traced {
					cfg.Trace = &aiac.TraceLog{}
				}
				opts := aiac.DistOptions{
					Workers: 2,
					RunRoot: b.TempDir(),
					Speedup: 1,
					Spawn: dtime.GoroutineSpawner(func(w aiac.DistWorkerEnv) error {
						wcfg := cfg
						if traced {
							wcfg.Trace = &aiac.TraceLog{}
						}
						return aiac.SolveDistWorker(wcfg, w, aiac.DistWorkerOptions{Speedup: 1})
					}),
					HeartbeatTimeout: 10 * time.Second,
					Wall:             2 * time.Minute,
				}
				res, _, err := aiac.SolveDist(cfg, opts)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("did not converge")
				}
				if traced && cfg.Trace.Len() == 0 {
					b.Fatal("traced solve produced no events")
				}
			}
		})
	}
}
