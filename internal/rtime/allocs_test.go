//go:build !race

package rtime

import (
	"testing"

	"aiac/internal/runenv"
)

// TestLocalSendRecvAllocs pins the local data plane: once warmed up, a Send
// to a rank hosted here and its receipt allocate nothing — no goroutine,
// closure or timer per message. The delay is long enough that the receiver
// sleeps on the not-yet-due head before it spins. (Allocation counts are
// not measurable under -race, hence the build tag.)
func TestLocalSendRecvAllocs(t *testing.T) {
	const done = 1
	var allocs float64
	Runner{Speedup: 1000}.Run(runenv.Config{
		Delay: func(_, _, _ int, _ float64) float64 { return 0.5 }, // 500 µs wall
	}, []runenv.Body{
		func(env runenv.Env) {
			roundTrip := func() {
				env.Send(1, 0, nil, 8)
				if _, ok := env.RecvWait(); !ok {
					t.Error("the echo was lost")
				}
			}
			for i := 0; i < 50; i++ {
				roundTrip()
			}
			allocs = testing.AllocsPerRun(200, roundTrip)
			env.Send(1, done, nil, 8)
		},
		func(env runenv.Env) {
			for {
				m, ok := env.RecvWait()
				if !ok || m.Kind == done {
					return
				}
				env.Send(0, 0, nil, 8)
			}
		},
	})
	if allocs != 0 {
		t.Fatalf("a local Send→RecvWait round trip allocates %v times, want 0", allocs)
	}
}
