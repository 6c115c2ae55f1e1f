package rtime

import (
	"sync/atomic"
	"testing"
	"time"

	"aiac/internal/runenv"
)

func TestPingPong(t *testing.T) {
	cfg := runenv.Config{
		Delay: func(_, _, _ int, _ float64) float64 { return 0.001 },
	}
	const rounds = 20
	var got int32
	r := Runner{Speedup: 10000}
	r.Run(cfg, []runenv.Body{
		func(env runenv.Env) {
			for i := 0; i < rounds; i++ {
				env.Send(1, i, i, 8)
				m, ok := env.RecvWait()
				if !ok {
					t.Error("ping lost")
					return
				}
				if m.Payload.(int) != i {
					t.Errorf("bad echo %v at round %d", m.Payload, i)
					return
				}
				atomic.AddInt32(&got, 1)
			}
		},
		func(env runenv.Env) {
			for i := 0; i < rounds; i++ {
				m, ok := env.RecvWait()
				if !ok {
					t.Error("pong lost")
					return
				}
				env.Send(0, m.Kind, m.Payload, 8)
			}
		},
	})
	if got != rounds {
		t.Fatalf("completed %d/%d rounds", got, rounds)
	}
}

func TestWorkAdvancesModelTime(t *testing.T) {
	cfg := runenv.Config{
		ComputeTime: func(_ int, _, units float64) float64 { return units },
	}
	var before, after float64
	r := Runner{Speedup: 1000}
	r.Run(cfg, []runenv.Body{func(env runenv.Env) {
		before = env.Now()
		env.Work(5) // 5 model seconds = 5 wall ms at speedup 1000
		after = env.Now()
	}})
	if after-before < 4 {
		t.Fatalf("Work(5) advanced model time by only %g", after-before)
	}
}

// TestStopUnblocksReceivers: a receiver parked in RecvWait with nothing ever
// coming is released when the world stops at its time limit.
func TestStopUnblocksReceivers(t *testing.T) {
	var unblocked atomic.Bool
	r := Runner{Speedup: 10000}
	r.Run(runenv.Config{MaxTime: 0.01}, []runenv.Body{
		func(env runenv.Env) { env.Sleep(1) },
		func(env runenv.Env) {
			_, ok := env.RecvWait()
			unblocked.Store(!ok && env.Stopped())
		},
	})
	if !unblocked.Load() {
		t.Fatal("blocked receiver was not released by Stop")
	}
}

func TestMaxTimeWatchdog(t *testing.T) {
	cfg := runenv.Config{MaxTime: 0.05}
	r := Runner{Speedup: 10000}
	iter := 0
	r.Run(cfg, []runenv.Body{func(env runenv.Env) {
		for !env.Stopped() && iter < 1e6 {
			env.Sleep(0.001)
			iter++
		}
	}})
	if iter >= 1e6 {
		t.Fatal("watchdog never fired")
	}
}

func TestPerPairFIFO(t *testing.T) {
	cfg := runenv.Config{
		Delay: func(_, _, bytes int, _ float64) float64 { return 1.0 / float64(bytes) },
	}
	var kinds []int
	r := Runner{Speedup: 100}
	r.Run(cfg, []runenv.Body{
		func(env runenv.Env) {
			env.Send(1, 0, nil, 1)   // slow
			env.Send(1, 1, nil, 100) // fast; must not overtake
		},
		func(env runenv.Env) {
			for i := 0; i < 2; i++ {
				m, ok := env.RecvWait()
				if !ok {
					t.Error("lost message")
					return
				}
				kinds = append(kinds, m.Kind)
			}
		},
	})
	if len(kinds) != 2 || kinds[0] != 0 || kinds[1] != 1 {
		t.Fatalf("messages reordered: %v", kinds)
	}
}

// TestMailboxReusesItsArray pins the head-index queue: a mailbox that is
// drained as fast as it fills keeps one backing array (reslicing from the
// front walked the capacity off and made append reallocate every few
// messages), counts its depth from the head, and drops a popped payload.
func TestMailboxReusesItsArray(t *testing.T) {
	w := NewWorld(1, []int{0}, 1, time.Now(), nil)
	p, e := w.procs[0], &env{p: w.procs[0]}
	var base *runenv.Msg
	for i := 0; i < 1000; i++ {
		w.deliver(runenv.Msg{To: 0, Kind: i, Payload: &i})
		w.deliver(runenv.Msg{To: 0, Kind: -i})
		if i == 0 {
			base = &p.mailbox[0]
		}
		if e.Pending() != 2 {
			t.Fatalf("round %d: %d pending, want 2", i, e.Pending())
		}
		if m, ok := e.Recv(); !ok || m.Kind != i {
			t.Fatalf("round %d: popped %+v, %v", i, m, ok)
		}
		if e.Pending() != 1 || p.mailbox[p.mboxHead-1].Payload != nil {
			t.Fatalf("round %d: %d pending, popped slot holds %v", i, e.Pending(), p.mailbox[p.mboxHead-1].Payload)
		}
		if m, ok := e.Recv(); !ok || m.Kind != -i {
			t.Fatalf("round %d: popped %+v, %v", i, m, ok)
		}
		if &p.mailbox[:1][0] != base {
			t.Fatalf("round %d: the mailbox moved to a new array", i)
		}
	}
	if _, ok := e.Recv(); ok {
		t.Fatal("message from an empty mailbox")
	}
}
