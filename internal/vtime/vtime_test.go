package vtime

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"aiac/internal/runenv"
	"aiac/internal/trace"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSleepAdvancesClock(t *testing.T) {
	var now0, now1 float64
	end := New(runenv.Config{Procs: 1}).Run([]runenv.Body{
		func(env runenv.Env) {
			now0 = env.Now()
			env.Sleep(2.5)
			now1 = env.Now()
		},
	})
	if !almost(now0, 0) || !almost(now1, 2.5) || !almost(end, 2.5) {
		t.Fatalf("got now0=%g now1=%g end=%g", now0, now1, end)
	}
}

func TestWorkUsesComputeTime(t *testing.T) {
	cfg := runenv.Config{
		ComputeTime: func(node int, start, units float64) float64 { return units / 2 },
	}
	var now float64
	New(cfg).Run([]runenv.Body{func(env runenv.Env) {
		env.Work(10)
		now = env.Now()
	}})
	if !almost(now, 5) {
		t.Fatalf("Work(10) at speed 2 should take 5s, clock=%g", now)
	}
}

func TestSendDelivensAfterDelay(t *testing.T) {
	cfg := runenv.Config{
		Delay: func(from, to, bytes int, _ float64) float64 { return 0.1 + float64(bytes)*0.01 },
	}
	var recvT, payload float64
	New(cfg).Run([]runenv.Body{
		func(env runenv.Env) {
			arr := env.Send(1, 7, 3.14, 10)
			if !almost(arr, 0.2) {
				t.Errorf("arrival = %g, want 0.2", arr)
			}
		},
		func(env runenv.Env) {
			m, ok := env.RecvWait()
			if !ok {
				t.Error("RecvWait failed")
				return
			}
			recvT = env.Now()
			payload = m.Payload.(float64)
			if m.Kind != 7 || m.From != 0 {
				t.Errorf("bad msg meta: %+v", m)
			}
		},
	})
	if !almost(recvT, 0.2) || payload != 3.14 {
		t.Fatalf("recvT=%g payload=%g", recvT, payload)
	}
}

func TestPingPongTiming(t *testing.T) {
	// 10 round trips with 1ms latency each way and 1s compute per side.
	cfg := runenv.Config{
		Delay: func(_, _, _ int, _ float64) float64 { return 0.001 },
	}
	const rounds = 10
	var end float64
	end = New(cfg).Run([]runenv.Body{
		func(env runenv.Env) {
			for i := 0; i < rounds; i++ {
				env.Sleep(1)
				env.Send(1, 0, i, 8)
				if _, ok := env.RecvWait(); !ok {
					t.Error("ping lost")
					return
				}
			}
		},
		func(env runenv.Env) {
			for i := 0; i < rounds; i++ {
				if _, ok := env.RecvWait(); !ok {
					t.Error("pong lost")
					return
				}
				env.Sleep(1)
				env.Send(0, 0, i, 8)
			}
		},
	})
	want := rounds*2.0 + rounds*2*0.001
	if !almost(end, want) {
		t.Fatalf("end=%g want %g", end, want)
	}
}

func TestDeadlockDetected(t *testing.T) {
	var cfg runenv.Config
	cause := recordStop(&cfg)
	s := New(cfg)
	var ok0 bool
	var sawStop bool
	s.Run([]runenv.Body{
		func(env runenv.Env) {
			_, ok0 = env.RecvWait()
			sawStop = env.Stopped()
		},
	})
	if *cause != runenv.StopStalled {
		t.Fatalf("stop cause %d, want StopStalled", *cause)
	}
	if ok0 {
		t.Fatal("RecvWait should report failure on deadlock")
	}
	if !sawStop {
		t.Fatal("env should report Stopped after deadlock")
	}
}

func TestMaxTimeStopsWorld(t *testing.T) {
	cfg := runenv.Config{MaxTime: 5}
	cause := recordStop(&cfg)
	s := New(cfg)
	iterations := 0
	s.Run([]runenv.Body{
		func(env runenv.Env) {
			for !env.Stopped() {
				env.Sleep(1)
				iterations++
			}
		},
	})
	if *cause != runenv.StopMaxTime {
		t.Fatalf("stop cause %d, want StopMaxTime", *cause)
	}
	if iterations > 6 {
		t.Fatalf("ran %d iterations past MaxTime", iterations)
	}
}

// TestStopPropagates: a process parked in RecvWait with nothing ever coming
// is released by the time limit another process passes.
func TestStopPropagates(t *testing.T) {
	var other bool
	cfg := runenv.Config{MaxTime: 1}
	cause := recordStop(&cfg)
	New(cfg).Run([]runenv.Body{
		func(env runenv.Env) { env.Sleep(2) },
		func(env runenv.Env) {
			_, ok := env.RecvWait()
			other = !ok && env.Stopped()
		},
	})
	if !other || *cause != runenv.StopMaxTime {
		t.Fatalf("second process released %v, stop cause %d; want released by StopMaxTime", other, *cause)
	}
}

func TestRecvNonBlocking(t *testing.T) {
	New(runenv.Config{}).Run([]runenv.Body{
		func(env runenv.Env) {
			if _, ok := env.Recv(); ok {
				t.Error("Recv on empty mailbox should fail")
			}
			env.Send(0, 1, "self", 1)
			env.Sleep(0.001)
			m, ok := env.Recv()
			if !ok || m.Payload.(string) != "self" {
				t.Errorf("self-send not delivered: %v %v", m, ok)
			}
		},
	})
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, []trace.Event) {
		log := &trace.Log{}
		cfg := runenv.Config{
			Trace: log,
			Delay: func(from, to, bytes int, _ float64) float64 { return 0.01 * float64(1+(from+to)%3) },
		}
		bodies := make([]runenv.Body, 4)
		for i := range bodies {
			r := rand.New(rand.NewSource(42 + int64(i)*7919))
			bodies[i] = func(env runenv.Env) {
				for k := 0; k < 20; k++ {
					env.Work(r.Float64() * 100)
					to := r.Intn(env.NumProcs())
					env.Send(to, k, k, 64)
					env.Trace(trace.Event{T0: env.Now(), T1: env.Now(), Node: env.Rank(), To: to, Kind: trace.Mark, Iter: k})
					for {
						if _, ok := env.Recv(); !ok {
							break
						}
					}
				}
			}
		}
		end := New(cfg).Run(bodies)
		return end, log.Events()
	}
	end1, ev1 := run()
	end2, ev2 := run()
	if end1 != end2 {
		t.Fatalf("non-deterministic end time: %g vs %g", end1, end2)
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatal("non-deterministic event logs")
	}
}

func TestPerPairFIFO(t *testing.T) {
	// Delay shrinks with message size; FIFO must still hold per pair.
	cfg := runenv.Config{
		Delay: func(_, _, bytes int, _ float64) float64 { return 1.0 / float64(bytes) },
	}
	var got []int
	New(cfg).Run([]runenv.Body{
		func(env runenv.Env) {
			env.Send(1, 0, 0, 1)   // delay 1.0
			env.Send(1, 1, 1, 100) // delay 0.01 — would overtake without FIFO
		},
		func(env runenv.Env) {
			for i := 0; i < 2; i++ {
				m, ok := env.RecvWait()
				if !ok {
					t.Error("lost message")
					return
				}
				got = append(got, m.Kind)
			}
		},
	})
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("messages reordered: %v", got)
	}
}

func TestPerPairFIFOProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		sends := 30
		cfg := runenv.Config{
			Delay: func(from, to, bytes int, _ float64) float64 {
				return float64(bytes%17) * 0.01
			},
		}
		type rec struct{ from, kind int }
		recvd := make([][]rec, n)
		bodies := make([]runenv.Body, n)
		for i := 0; i < n; i++ {
			r := rand.New(rand.NewSource(seed + int64(i)*7919))
			bodies[i] = func(env runenv.Env) {
				for k := 0; k < sends; k++ {
					to := r.Intn(n)
					env.Send(to, k, nil, 1+r.Intn(100))
					env.Sleep(r.Float64() * 0.005)
				}
				env.Sleep(10) // let everything drain
				for {
					m, ok := env.Recv()
					if !ok {
						break
					}
					recvd[env.Rank()] = append(recvd[env.Rank()], rec{m.From, m.Kind})
				}
			}
		}
		New(cfg).Run(bodies)
		// per (from,to) pair, kinds must be increasing (they were sent in
		// increasing order).
		for to := range recvd {
			last := make(map[int]int)
			for _, r := range recvd[to] {
				if prev, ok := last[r.from]; ok && r.kind <= prev {
					return false
				}
				last[r.from] = r.kind
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcessesManyEvents(t *testing.T) {
	const n = 32
	counts := make([]int, n)
	cfg := runenv.Config{Delay: func(_, _, _ int, _ float64) float64 { return 0.001 }}
	bodies := make([]runenv.Body, n)
	for i := range bodies {
		bodies[i] = func(env runenv.Env) {
			me := env.Rank()
			for k := 0; k < 100; k++ {
				env.Work(10)
				env.Send((me+1)%n, k, nil, 8)
				if _, ok := env.Recv(); ok {
					counts[me]++
				}
			}
			env.Sleep(1)
			for {
				if _, ok := env.Recv(); !ok {
					break
				}
				counts[me]++
			}
		}
	}
	New(cfg).Run(bodies)
	for i, c := range counts {
		if c != 100 {
			t.Fatalf("proc %d received %d/100 messages", i, c)
		}
	}
}

func TestWorkIntegratesLoadTraces(t *testing.T) {
	// ComputeTime hooks receive the correct start times as the clock
	// advances, so time-varying load integrates properly.
	var starts []float64
	cfg := runenv.Config{
		ComputeTime: func(node int, start, units float64) float64 {
			starts = append(starts, start)
			return units
		},
	}
	New(cfg).Run([]runenv.Body{func(env runenv.Env) {
		env.Work(1)
		env.Work(2)
		env.Sleep(5)
		env.Work(3)
	}})
	want := []float64{0, 1, 8}
	if len(starts) != len(want) {
		t.Fatalf("starts = %v", starts)
	}
	for i := range want {
		if !almost(starts[i], want[i]) {
			t.Fatalf("starts = %v, want %v", starts, want)
		}
	}
}

func TestHeavyFanIn(t *testing.T) {
	// many senders to one receiver: the event heap must keep global order
	const senders = 20
	const msgs = 50
	var recvTimes []float64
	bodies := make([]runenv.Body, senders+1)
	for i := 0; i < senders; i++ {
		rank := i
		bodies[i] = func(env runenv.Env) {
			for k := 0; k < msgs; k++ {
				env.Sleep(0.001 * float64(rank+1))
				env.Send(senders, k, nil, 8)
			}
		}
	}
	bodies[senders] = func(env runenv.Env) {
		for n := 0; n < senders*msgs; n++ {
			if _, ok := env.RecvWait(); !ok {
				t.Error("lost messages")
				return
			}
			recvTimes = append(recvTimes, env.Now())
		}
	}
	cfg := runenv.Config{Delay: func(_, _, _ int, _ float64) float64 { return 0.0005 }}
	New(cfg).Run(bodies)
	if len(recvTimes) != senders*msgs {
		t.Fatalf("received %d messages", len(recvTimes))
	}
	for i := 1; i < len(recvTimes); i++ {
		if recvTimes[i] < recvTimes[i-1] {
			t.Fatalf("receiver clock went backwards at %d", i)
		}
	}
}

func TestSendToInvalidProcPanics(t *testing.T) {
	defer func() {
		// the panic happens inside the process goroutine and crashes the
		// program in production; here we only verify the guard exists by
		// calling through a body that recovers itself.
	}()
	recovered := false
	New(runenv.Config{}).Run([]runenv.Body{func(env runenv.Env) {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		env.Send(99, 0, nil, 1)
	}})
	if !recovered {
		t.Fatal("expected panic on invalid destination")
	}
}

// TestPanicReachesRunsCaller: a panic in one body reaches the caller of Run,
// and the processes still parked (one on a wake, one waiting on a message)
// are unwound on the way out instead of being left behind — also past one
// that panics again while it unwinds.
func TestPanicReachesRunsCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	var unwound [3]bool
	got := func() (v any) {
		defer func() { v = recover() }()
		New(runenv.Config{}).Run([]runenv.Body{
			func(env runenv.Env) {
				for !env.Stopped() {
					env.Work(1)
				}
				unwound[0] = true
				panic("again")
			},
			func(env runenv.Env) {
				env.Work(1)
				env.Stopped()
				panic("boom")
			},
			func(env runenv.Env) {
				env.RecvWait()
				unwound[2] = true
			},
		})
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run's caller recovered %v, want the panic that ended the run", got)
	}
	if !unwound[0] || !unwound[2] {
		t.Fatalf("bodies that were parked unwound: %v, want both", unwound)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the panicking run, %d before", n, base)
	}
}
