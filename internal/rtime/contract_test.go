package rtime_test

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aiac/internal/dtime"
	"aiac/internal/rtime"
	"aiac/internal/runenv"
	"aiac/internal/trace"
)

// The runenv.Env contract of the real-time runtime, written once and run on
// every way a world can be hosted. Each case is a world of three ranks;
// ranks 0 and 1 always share a host, so the link between them is local (the
// only kind a FaultHook decides), and rank 2 lives elsewhere wherever there
// is an elsewhere. Only that host of ranks 0 and 1 gets Config.MaxTime
// (hostCfg), so a time limit reaches rank 2 as a stop across the Link.
// Payloads are []byte, which the codec-less dtime hosting carries too.

const contractSpeedup = 1000 // one model second per wall millisecond

// hosting runs bodies[i] as rank i to completion.
type hosting func(cfg runenv.Config, bodies []runenv.Body)

// hostCfg is cfg for the host of ranks: without the time limit unless the
// host has rank 0.
func hostCfg(cfg runenv.Config, ranks ...int) runenv.Config {
	if !slices.Contains(ranks, 0) {
		cfg.MaxTime = 0
	}
	return cfg
}

func runnerHosting(*testing.T) hosting {
	return func(cfg runenv.Config, bodies []runenv.Body) {
		rtime.Runner{Speedup: contractSpeedup}.Run(cfg, bodies)
	}
}

// memLink joins two worlds back to back in memory: the fake the Link seam
// exists for.
type memLink struct{ peer *rtime.World }

func (l *memLink) Send(m runenv.Msg) {
	if err := l.peer.Deliver(m); err != nil {
		panic(err)
	}
}
func (l *memLink) Stop() { l.peer.StopLocal() }

func worldsHosting(*testing.T) hosting {
	return func(cfg runenv.Config, bodies []runenv.Body) {
		start := time.Now()
		toB, toA := &memLink{}, &memLink{}
		a := rtime.NewWorld(3, []int{0, 1}, contractSpeedup, start, toB)
		b := rtime.NewWorld(3, []int{2}, contractSpeedup, start, toA)
		toB.peer, toA.peer = b, a
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			a.RunRanks(cfg, map[int]runenv.Body{0: bodies[0], 1: bodies[1]})
		}()
		go func() {
			defer wg.Done()
			b.RunRanks(hostCfg(cfg, 2), map[int]runenv.Body{2: bodies[2]})
		}()
		wg.Wait()
	}
}

// distHosting spreads the ranks over two loopback workers of the distributed
// backend (ranks 0 and 1 on worker 0, rank 2 on worker 1): link 0↔1 is
// local, links 0↔2 and 1↔2 cross the coordinator relay.
func distHosting(t *testing.T) hosting {
	return func(cfg runenv.Config, bodies []runenv.Body) {
		_, _, err := dtime.Run(dtime.Options{
			Workers:          2,
			Ranks:            len(bodies),
			RunRoot:          t.TempDir(),
			HeartbeatTimeout: 5 * time.Second,
			Connect:          5 * time.Second,
			Wall:             30 * time.Second,
			Spawn: dtime.GoroutineSpawner(func(w dtime.WorkerEnv) error {
				return dtime.RunWorker(w, dtime.WorkerOptions{Speedup: contractSpeedup},
					func(pr runenv.PartialRunner) ([]byte, error) {
						local := make(map[int]runenv.Body, len(w.Ranks))
						for _, r := range w.Ranks {
							local[r] = bodies[r]
						}
						pr.RunRanks(hostCfg(cfg, w.Ranks...), local)
						return nil, nil
					})
			}),
		})
		if err != nil {
			t.Error(err)
		}
	}
}

func idle(runenv.Env) {}

func constDelay(d float64) func(_, _, _ int, _ float64) float64 {
	return func(_, _, _ int, _ float64) float64 { return d }
}

// deliveries counts Observer calls.
type deliveries struct{ n atomic.Int64 }

func (d *deliveries) MsgDelivered(runenv.Msg, int) { d.n.Add(1) }

// recvN receives n messages, failing the test if the world stops first.
func recvN(t *testing.T, env runenv.Env, n int) []runenv.Msg {
	var got []runenv.Msg
	for len(got) < n {
		m, ok := env.RecvWait()
		if !ok {
			t.Errorf("rank %d: world stopped after %d of %d messages", env.Rank(), len(got), n)
			return got
		}
		got = append(got, m)
	}
	return got
}

func kinds(ms []runenv.Msg) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = m.Kind
	}
	return out
}

var contractCases = []struct {
	name string
	run  func(t *testing.T, run hosting)
}{
	{"ring-payload-integrity", func(t *testing.T, run hosting) {
		// A payload goes round 0 → 1 → 2 → 0, each hop appending its mark.
		const rounds = 10
		hop := func(next int, mark string) runenv.Body {
			return func(env runenv.Env) {
				for i := 0; i < rounds; i++ {
					m, ok := env.RecvWait()
					if !ok {
						t.Errorf("rank %d: lost round %d", env.Rank(), i)
						return
					}
					p := append(append([]byte(nil), m.Payload.([]byte)...), mark...)
					env.Send(next, m.Kind, p, len(p))
				}
			}
		}
		obs := &deliveries{}
		done := 0
		run(runenv.Config{Procs: 3, Delay: constDelay(0.5), Observer: obs}, []runenv.Body{
			func(env runenv.Env) {
				for i := 0; i < rounds; i++ {
					p := []byte(fmt.Sprintf("ping%d", i))
					env.Send(1, i, p, len(p))
					m, ok := env.RecvWait()
					if !ok {
						t.Errorf("rank 0: lost round %d", i)
						return
					}
					want := fmt.Sprintf("ping%d-a-b", i)
					if m.Kind != i || m.From != 2 || string(m.Payload.([]byte)) != want {
						t.Errorf("round %d: got kind %d from %d payload %q, want %q", i, m.Kind, m.From, m.Payload, want)
						return
					}
					done++
				}
			},
			hop(2, "-a"),
			hop(0, "-b"),
		})
		if done != rounds {
			t.Fatalf("completed %d/%d rounds", done, rounds)
		}
		if n := obs.n.Load(); n != 3*rounds {
			t.Fatalf("observer saw %d deliveries of %d messages", n, 3*rounds)
		}
	}},

	{"pair-fifo-against-modeled-delay", func(t *testing.T, run hosting) {
		// The second message has the shorter modeled delay and must not
		// overtake, on the local pair and on the remote one; its sender is
		// told exactly the first one's arrival on both.
		var got [3][]int
		recv := func(env runenv.Env) { got[env.Rank()] = kinds(recvN(t, env, 2)) }
		run(runenv.Config{
			Procs: 3,
			Delay: func(_, _, bytes int, _ float64) float64 { return 10 / float64(bytes) },
		}, []runenv.Body{
			func(env runenv.Env) {
				for _, to := range []int{1, 2} {
					slow := env.Send(to, 0, nil, 1)
					if fast := env.Send(to, 1, nil, 1000); fast != slow {
						t.Errorf("to rank %d: fast send reported %g, want the slow one's %g", to, fast, slow)
					}
				}
			},
			recv, recv,
		})
		for _, r := range []int{1, 2} {
			if fmt.Sprint(got[r]) != "[0 1]" {
				t.Errorf("rank %d received kinds %v, want [0 1]", r, got[r])
			}
		}
	}},

	{"stop-releases-parked-receivers", func(t *testing.T, run hosting) {
		// Every rank parks with nothing ever coming; the time limit of rank
		// 0's host releases them all.
		var released [3]atomic.Bool
		park := func(env runenv.Env) {
			_, ok := env.RecvWait()
			released[env.Rank()].Store(!ok && env.Stopped())
		}
		run(runenv.Config{Procs: 3, MaxTime: 5}, []runenv.Body{park, park, park})
		for r := range released {
			if !released[r].Load() {
				t.Errorf("rank %d was not released by the stop", r)
			}
		}
	}},

	{"maxtime-stops-every-host", func(t *testing.T, run hosting) {
		const limit = 100000
		var iters [3]int
		spin := func(env runenv.Env) {
			n := &iters[env.Rank()]
			for !env.Stopped() && *n < limit {
				env.Sleep(0.1)
				*n++
			}
		}
		run(runenv.Config{Procs: 3, MaxTime: 5}, []runenv.Body{spin, spin, spin})
		for r, n := range iters {
			if n >= limit {
				t.Errorf("rank %d never saw the stop", r)
			}
		}
	}},

	{"drop-is-silent", func(t *testing.T, run hosting) {
		// Kind 1 is dropped with an extra delay; the sender is still told
		// now+delay+extra, and only the later kind 2 ever arrives.
		var first runenv.Msg
		var left int
		run(runenv.Config{
			Procs: 3,
			Delay: constDelay(1),
			FaultHook: func(_, _, kind, _ int, _, _ float64) runenv.MsgFault {
				if kind == 1 {
					return runenv.MsgFault{Drop: true, ExtraDelay: 2}
				}
				return runenv.MsgFault{}
			},
		}, []runenv.Body{
			func(env runenv.Env) {
				before := env.Now()
				at := env.Send(1, 1, []byte("lost"), 4)
				if after := env.Now(); at < before+3 || at > after+3 {
					t.Errorf("dropped send returned %g, want within [%g, %g]", at, before+3, after+3)
				}
				env.Send(1, 2, []byte("kept"), 4)
			},
			func(env runenv.Env) {
				if ms := recvN(t, env, 1); len(ms) == 1 {
					first = ms[0]
				}
				env.Sleep(10) // well past the dropped copy's would-be arrival
				left = env.Pending()
			},
			idle,
		})
		if first.Kind != 2 || left != 0 {
			t.Fatalf("first delivery kind %d with %d more pending, want kind 2 and nothing else", first.Kind, left)
		}
	}},

	{"dup-copies-take-the-next-seqs", func(t *testing.T, run hosting) {
		var lastSend []uint64
		var got []runenv.Msg
		run(runenv.Config{
			Procs: 3,
			Delay: constDelay(1),
			FaultHook: func(_, _, kind, _ int, _, _ float64) runenv.MsgFault {
				if kind == 1 {
					return runenv.MsgFault{DupDelays: []float64{0.5, 1}}
				}
				return runenv.MsgFault{}
			},
		}, []runenv.Body{
			func(env runenv.Env) {
				for _, kind := range []int{0, 1, 0} {
					env.Send(1, kind, []byte("x"), 1)
					lastSend = append(lastSend, env.LastSendSeq())
				}
			},
			func(env runenv.Env) { got = recvN(t, env, 5) },
			idle,
		})
		// Seq 1, then the duplicated send: primary 2, copies 3 and 4, then 5.
		if fmt.Sprint(lastSend) != "[1 2 5]" {
			t.Errorf("LastSendSeq after each send = %v, want [1 2 5]", lastSend)
		}
		seqs := map[int][]uint64{}
		for _, m := range got {
			if string(m.Payload.([]byte)) != "x" || m.From != 0 {
				t.Errorf("copy %+v lost its payload or sender", m)
			}
			seqs[m.Kind] = append(seqs[m.Kind], m.Seq)
		}
		for _, s := range seqs {
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		}
		if fmt.Sprint(seqs[0]) != "[1 5]" || fmt.Sprint(seqs[1]) != "[2 3 4]" {
			t.Errorf("delivered seqs by kind = %v, want 0:[1 5] 1:[2 3 4]", seqs)
		}
	}},

	{"reorder-may-overtake-fifo-may-not", func(t *testing.T, run hosting) {
		// Kind 0 is a reordered copy held back 30 model seconds: the later
		// kinds 1 and 2 overtake it, but kind 2 (shorter modeled delay) does
		// not overtake kind 1.
		var got []int
		run(runenv.Config{
			Procs: 3,
			Delay: func(_, _, bytes int, _ float64) float64 { return 5 / float64(bytes) },
			FaultHook: func(_, _, kind, _ int, _, _ float64) runenv.MsgFault {
				if kind == 0 {
					return runenv.MsgFault{Reorder: true, ExtraDelay: 30}
				}
				return runenv.MsgFault{}
			},
		}, []runenv.Body{
			func(env runenv.Env) {
				env.Send(1, 0, nil, 1)
				env.Send(1, 1, nil, 1)
				env.Send(1, 2, nil, 100)
			},
			func(env runenv.Env) { got = kinds(recvN(t, env, 3)) },
			idle,
		})
		if fmt.Sprint(got) != "[1 2 0]" {
			t.Fatalf("received kinds %v, want [1 2 0]", got)
		}
	}},

	{"local-message-invisible-until-its-arrival", func(t *testing.T, run hosting) {
		// Rank 1 looks at its mailbox until rank 0's message is due: Recv and
		// Pending must not show it before its modeled arrival and must show
		// it once that has passed, stamped with the arrival Send returned.
		arrival := make(chan float64, 1)
		var got runenv.Msg
		looks := 0
		run(runenv.Config{Procs: 3, Delay: constDelay(50)}, []runenv.Body{
			func(env runenv.Env) { arrival <- env.Send(1, 5, []byte("x"), 1) },
			func(env runenv.Env) {
				at := <-arrival
				for {
					before := env.Now()
					n := env.Pending()
					m, ok := env.Recv()
					if after := env.Now(); (n > 0 || ok) && after < at {
						t.Errorf("visible by %g (pending %d, received %v), before its arrival %g", after, n, ok, at)
						return
					}
					if ok {
						if m.RecvT != at {
							t.Errorf("received with RecvT %g, want the arrival %g", m.RecvT, at)
						}
						got = m
						return
					}
					if before >= at {
						t.Errorf("still invisible at %g (pending %d), after its arrival %g", before, n, at)
						return
					}
					looks++
					env.Sleep(1)
				}
			},
			idle,
		})
		if got.Kind != 5 || looks == 0 {
			t.Fatalf("received kind %d after %d looks before the arrival, want kind 5 and at least one look", got.Kind, looks)
		}
	}},

	{"earlier-arrival-posted-later-is-received-first", func(t *testing.T, run hosting) {
		// Kind 0 takes 40 model seconds; kind 1, sent after it as a
		// reordered copy, takes 5 and is received first, by a receiver
		// already waiting for kind 0. Kind 2 takes 5 too but keeps its
		// pair's FIFO order behind kind 0.
		var sent [3]float64
		var got []runenv.Msg
		var firstAt float64
		run(runenv.Config{
			Procs: 3,
			Delay: func(_, _, bytes int, _ float64) float64 { return float64(bytes) },
			FaultHook: func(_, _, kind, _ int, _, _ float64) runenv.MsgFault {
				return runenv.MsgFault{Reorder: kind == 1}
			},
		}, []runenv.Body{
			func(env runenv.Env) {
				for kind, bytes := range []int{40, 5, 5} {
					sent[kind] = env.Send(1, kind, nil, bytes)
					env.Sleep(2) // the receiver is waiting for kind 0 by now
				}
			},
			func(env runenv.Env) {
				got = recvN(t, env, 1)
				firstAt = env.Now()
				got = append(got, recvN(t, env, 2)...)
			},
			idle,
		})
		if fmt.Sprint(kinds(got)) != "[1 0 2]" {
			t.Fatalf("received kinds %v, want [1 0 2]", kinds(got))
		}
		if firstAt >= sent[0] {
			t.Errorf("kind 1 received at %g, not before kind 0's arrival %g", firstAt, sent[0])
		}
		for _, m := range got {
			if m.RecvT != sent[m.Kind] {
				t.Errorf("kind %d received with RecvT %g, want its arrival %g", m.Kind, m.RecvT, sent[m.Kind])
			}
		}
	}},

	{"no-goroutine-per-message", func(t *testing.T, run hosting) {
		// A thousand local messages in flight at once take no goroutine
		// each, and arrive in order.
		const n = 1000
		var before, after int
		var got []runenv.Msg
		run(runenv.Config{Procs: 3, Delay: constDelay(100)}, []runenv.Body{
			func(env runenv.Env) {
				before = runtime.NumGoroutine()
				for i := 0; i < n; i++ {
					env.Send(1, i, nil, 1)
				}
				after = runtime.NumGoroutine()
			},
			func(env runenv.Env) { got = recvN(t, env, n) },
			idle,
		})
		if after-before > 20 {
			t.Errorf("%d goroutines before %d sends in flight, %d with them", before, n, after)
		}
		for i, m := range got {
			if m.Kind != i {
				t.Fatalf("message %d received as kind %d", i, m.Kind)
			}
		}
	}},

	{"stop-ends-long-waits", func(t *testing.T, run hosting) {
		// Rank 1 waits on a message due in 10 wall seconds and rank 2 is in
		// a Work worth as much when the world reaches its time limit.
		const long = 10 * contractSpeedup
		var received atomic.Bool
		start := time.Now()
		run(runenv.Config{
			Procs:       3,
			Delay:       constDelay(long),
			ComputeTime: func(_ int, _, units float64) float64 { return units },
			MaxTime:     5,
		}, []runenv.Body{
			func(env runenv.Env) { env.Send(1, 0, nil, 1) },
			func(env runenv.Env) {
				_, ok := env.RecvWait()
				received.Store(ok)
			},
			func(env runenv.Env) { env.Work(long) },
		})
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("the world took %v to stop", d)
		}
		if received.Load() {
			t.Error("a message was received before its arrival")
		}
	}},

	{"remote-send-one-seq-modeled-arrival", func(t *testing.T, run hosting) {
		// The Figure-4 pacing contract: Send to a rank hosted elsewhere
		// returns the modeled arrival from the Delay hook even though the
		// real transport replaces the modeled latency, and takes one Seq.
		const linkDelay = 3.5
		var got []runenv.Msg
		run(runenv.Config{Procs: 3, Delay: constDelay(linkDelay)}, []runenv.Body{
			func(env runenv.Env) {
				before := env.Now()
				at := env.Send(2, 7, []byte("x"), 11)
				if after := env.Now(); at < before+linkDelay || at > after+linkDelay {
					t.Errorf("send returned %g, want within [%g, %g]", at, before+linkDelay, after+linkDelay)
				}
				if s := env.LastSendSeq(); s != 1 {
					t.Errorf("first send took seq %d, want 1", s)
				}
				env.Send(2, 8, []byte("y"), 12)
				if s := env.LastSendSeq(); s != 2 {
					t.Errorf("second send took seq %d, want 2", s)
				}
			},
			idle,
			func(env runenv.Env) { got = recvN(t, env, 2) },
		})
		for i, m := range got {
			want := runenv.Msg{From: 0, To: 2, Kind: 7 + i, Bytes: 11 + i, Seq: uint64(1 + i)}
			if m.From != want.From || m.To != want.To || m.Kind != want.Kind || m.Bytes != want.Bytes || m.Seq != want.Seq ||
				!bytes.Equal(m.Payload.([]byte), []byte{"xy"[i]}) {
				t.Errorf("message %d arrived as %+v, want %+v", i, m, want)
			}
		}
	}},
}

func TestEnvContract(t *testing.T) {
	for _, h := range []struct {
		name string
		make func(*testing.T) hosting
	}{
		{"runner", runnerHosting},
		{"worlds", worldsHosting},
		{"dist", distHosting},
	} {
		t.Run(h.name, func(t *testing.T) {
			for _, c := range contractCases {
				t.Run(c.name, func(t *testing.T) { c.run(t, h.make(t)) })
			}
		})
	}
}

// TestDeliverBeforeRunRanks pins the early-arrival buffer: a message that
// reaches a world before RunRanks attached the bodies is delivered, observed
// once, stamped when it is handed over (not when it arrived), and traced as
// the delivery half of a wire span. The one case of the contract that needs
// a bare World: no hosting can make a peer win that race on purpose.
func TestDeliverBeforeRunRanks(t *testing.T) {
	w := rtime.NewWorld(2, []int{1}, contractSpeedup, time.Now(), nil)
	if err := w.Deliver(runenv.Msg{From: 1, To: 0}); err == nil {
		t.Error("a message for a rank hosted elsewhere was accepted")
	}
	if err := w.Deliver(runenv.Msg{From: 0, To: 1, Kind: 7, Payload: []byte("early"), SendT: 0.25, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	attached := w.Now()

	obs, log := &deliveries{}, &trace.Log{}
	var got []runenv.Msg
	w.RunRanks(runenv.Config{Procs: 2, Observer: obs, Trace: log}, map[int]runenv.Body{
		1: func(env runenv.Env) { got = recvN(t, env, 1) },
	})
	if len(got) != 1 || got[0].Kind != 7 || string(got[0].Payload.([]byte)) != "early" || got[0].Seq != 1 {
		t.Fatalf("received %+v, want the early message", got)
	}
	if got[0].RecvT < attached {
		t.Errorf("stamped at %g, before the bodies were attached at %g", got[0].RecvT, attached)
	}
	if n := obs.n.Load(); n != 1 {
		t.Errorf("observer saw %d deliveries, want 1", n)
	}
	evs := log.Events()
	if len(evs) != 1 || evs[0].Kind != trace.Wire || evs[0].Note != trace.WireDeliverNote ||
		evs[0].Node != 0 || evs[0].To != 1 || evs[0].Seq != 1 || evs[0].T0 != 0.25 || evs[0].T1 != got[0].RecvT {
		t.Errorf("trace = %+v, want one wire-delivery record of the message", evs)
	}
}
