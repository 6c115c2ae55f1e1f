package vtime

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"aiac/internal/runenv"
)

// Contract tests for deferred wakes (see proc.advance / proc.sync):
// cancellation latency and the hand-off count the deferral exists to reduce. TestGoldenEquivalence is the proof that deferral
// is invisible and TestMaxTimeInsideWorkBurst pins the time-limit fallback;
// these pin the rest of the edges.

// sweepBody is the shape of an engine iteration: k units of compute, one
// boundary send, then a look at the mailbox.
func sweepBody(k, iters int, done func(env runenv.Env) bool) runenv.Body {
	return func(env runenv.Env) {
		next := env.Rank() + 1 // a chain: the last process sends back down
		if next == env.NumProcs() {
			next = env.Rank() - 1
		}
		for it := 0; it < iters; it++ {
			for j := 0; j < k; j++ {
				env.Work(1e-3)
			}
			env.Send(next, 0, nil, 64)
			for {
				if _, ok := env.Recv(); !ok {
					break
				}
			}
			if done != nil && done(env) {
				return
			}
		}
	}
}

// TestCanceledHonouredWithinOneSweep: once Config.Canceled flips, no live
// process starts more than one further sweep.
func TestCanceledHonouredWithinOneSweep(t *testing.T) {
	const procs = 4
	var polls atomic.Int64
	var flipped atomic.Bool
	late := make([]int, procs) // sweeps completed after the flip, per process
	cfg := runenv.Config{
		Delay: func(_, _, _ int, _ float64) float64 { return 2e-4 },
		Canceled: func() bool {
			if polls.Add(1) >= 200 {
				flipped.Store(true)
			}
			return flipped.Load()
		},
	}
	bodies := make([]runenv.Body, procs)
	for i := range bodies {
		bodies[i] = sweepBody(8, 1<<30, func(env runenv.Env) bool {
			if flipped.Load() {
				late[env.Rank()]++
			}
			return env.Stopped()
		})
	}
	cause := recordStop(&cfg)
	New(cfg).Run(bodies)
	if *cause != runenv.StopCanceled {
		t.Fatal("run did not end as canceled")
	}
	for r, n := range late {
		if n > 1 {
			t.Errorf("process %d completed %d sweeps after the cancel flipped, want at most 1", r, n)
		}
	}
}

// TestSweepMakesOneHandoff: k Work calls, a send and a mailbox drain are one
// scheduler hand-off, not k+1.
func TestSweepMakesOneHandoff(t *testing.T) {
	const procs, k, iters = 5, 8, 200
	bodies := make([]runenv.Body, procs)
	for i := range bodies {
		bodies[i] = sweepBody(k, iters, nil)
	}
	s := New(runenv.Config{Delay: func(_, _, _ int, _ float64) float64 { return 2e-4 }})
	s.Run(bodies)
	// One kick-off hand-off per process plus one per sweep (at the send; the
	// drain and the body's return then find nothing deferred).
	if got, want := s.Handoffs(), int64(procs*(iters+1)); got != want {
		t.Fatalf("%d hand-offs for %d sweeps of %d Work calls on %d processes, want %d",
			got, iters, k, procs, want)
	}
}

// BenchmarkSweep prices the runtime layer for an engine-shaped iteration: 15
// processes in a chain, each iteration 8×Work, one Send and a mailbox drain.
// It runs at GOMAXPROCS 1 and 2: a hand-off between coroutines does not go
// through the Go scheduler, so the two rows should read alike. ns/Work is
// the wall cost per Work call including the iteration's share of sends,
// deliveries and hand-offs; handoffs/op is the number of scheduler hand-offs
// per run of the world.
func BenchmarkSweep(b *testing.B) {
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("gomaxprocs=%d", threads), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(threads))
			benchSweep(b)
		})
	}
}

func benchSweep(b *testing.B) {
	const procs, k, iters = 15, 8, 200
	cfg := runenv.Config{
		Delay: func(_, _, _ int, _ float64) float64 { return 2e-4 },
	}
	bodies := make([]runenv.Body, procs)
	for i := range bodies {
		bodies[i] = sweepBody(k, iters, nil)
	}
	var handoffs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(cfg)
		s.Run(bodies)
		handoffs += s.Handoffs()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*procs*iters*k), "ns/Work")
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/op")
}
