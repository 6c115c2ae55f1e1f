package vtime

import (
	"testing"

	"aiac/internal/runenv"
)

// faultCfg builds a one-way two-process config with a constant 0.1s delay
// and the given fault hook.
func faultCfg(hook func(from, to, kind, bytes int, now, delay float64) runenv.MsgFault) runenv.Config {
	return runenv.Config{
		Procs:     2,
		Delay:     func(_, _, _ int, _ float64) float64 { return 0.1 },
		FaultHook: hook,
	}
}

// collect runs a sender emitting `sends` messages back to back and returns
// the payloads the receiver saw, in delivery order.
func collect(t *testing.T, cfg runenv.Config, sends int, want int) []int {
	t.Helper()
	var got []int
	New(cfg).Run([]runenv.Body{
		func(env runenv.Env) {
			for i := 0; i < sends; i++ {
				env.Send(1, 1, i, 8)
			}
		},
		func(env runenv.Env) {
			for len(got) < want {
				m, ok := env.RecvWait()
				if !ok {
					return
				}
				got = append(got, m.Payload.(int))
			}
		},
	})
	return got
}

func TestFaultHookDropSuppressesDelivery(t *testing.T) {
	hook := func(from, to, kind, bytes int, now, delay float64) runenv.MsgFault {
		return runenv.MsgFault{Drop: kind == 1}
	}
	var got []int
	cfg := runenv.Config{
		Procs:     2,
		Delay:     func(_, _, _ int, _ float64) float64 { return 0.1 },
		FaultHook: hook,
	}
	cause := recordStop(&cfg)
	s := New(cfg)
	s.Run([]runenv.Body{
		func(env runenv.Env) {
			if arr := env.Send(1, 1, 100, 8); arr <= 0 {
				t.Errorf("dropped send must still report a phantom arrival, got %g", arr)
			}
			env.Send(1, 2, 200, 8) // kind 2: not dropped
		},
		func(env runenv.Env) {
			m, ok := env.RecvWait()
			if !ok {
				return
			}
			got = append(got, m.Payload.(int))
		},
	})
	if len(got) != 1 || got[0] != 200 {
		t.Fatalf("receiver saw %v, want only the undropped message [200]", got)
	}
	if *cause == runenv.StopStalled {
		t.Fatal("world deadlocked: the undropped message never arrived")
	}
}

func TestFaultHookDuplicateDeliversTwice(t *testing.T) {
	cfg := faultCfg(func(from, to, kind, bytes int, now, delay float64) runenv.MsgFault {
		return runenv.MsgFault{DupDelays: []float64{0.05}}
	})
	got := collect(t, cfg, 1, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("duplicated message delivered as %v, want [0 0]", got)
	}
}

func TestFaultHookExtraDelayShiftsArrival(t *testing.T) {
	cfg := faultCfg(func(from, to, kind, bytes int, now, delay float64) runenv.MsgFault {
		return runenv.MsgFault{ExtraDelay: 0.4}
	})
	var recvT float64
	New(cfg).Run([]runenv.Body{
		func(env runenv.Env) {
			if arr := env.Send(1, 1, 0, 8); !almost(arr, 0.5) {
				t.Errorf("arrival = %g, want 0.5", arr)
			}
		},
		func(env runenv.Env) {
			m, ok := env.RecvWait()
			if ok {
				recvT = m.RecvT
			}
		},
	})
	if !almost(recvT, 0.5) {
		t.Fatalf("received at %g, want base 0.1 + extra 0.4", recvT)
	}
}

// TestFaultHookReorderBypassesFIFO pins the reordering mechanism: a delayed
// message marked Reorder escapes the per-pair FIFO clamp, so a later send
// overtakes it.
func TestFaultHookReorderBypassesFIFO(t *testing.T) {
	cfg := faultCfg(func(from, to, kind, bytes int, now, delay float64) runenv.MsgFault {
		if kind == 0 {
			return runenv.MsgFault{Reorder: true, ExtraDelay: 1.0}
		}
		return runenv.MsgFault{}
	})
	var got []int
	New(cfg).Run([]runenv.Body{
		func(env runenv.Env) {
			env.Send(1, 0, 111, 8) // reordered: arrives at 1.1
			env.Send(1, 1, 222, 8) // normal: arrives at 0.1
		},
		func(env runenv.Env) {
			for len(got) < 2 {
				m, ok := env.RecvWait()
				if !ok {
					return
				}
				got = append(got, m.Payload.(int))
			}
		},
	})
	if len(got) != 2 || got[0] != 222 || got[1] != 111 {
		t.Fatalf("delivery order %v, want the later send first: [222 111]", got)
	}
}

// TestFaultHookNilKeepsFIFO guards against regressions in the default path:
// without a hook the per-pair FIFO clamp still orders back-to-back sends.
func TestFaultHookNilKeepsFIFO(t *testing.T) {
	cfg := runenv.Config{
		Procs: 2,
		Delay: func(_, _, _ int, _ float64) float64 { return 0.1 },
	}
	got := collect(t, cfg, 5, 5)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO order broken without faults: %v", got)
		}
	}
}
