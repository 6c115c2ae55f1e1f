package rtime_test

import (
	"testing"

	"aiac/internal/rtime"
	"aiac/internal/runenv"
	"aiac/internal/vtime"
)

// fateScript is one sender's sends to one receiver, in order: a long send,
// then short ones whose fates differ. The link delay is the send's bytes in
// model seconds, and each send's fault is its row's.
var fateScript = []struct {
	row   string
	bytes int
	fault runenv.MsgFault
}{
	{"long", 50, runenv.MsgFault{}},
	{"drop", 1, runenv.MsgFault{Drop: true}},
	{"equal-arrival", 1, runenv.MsgFault{}},
	{"reorder", 1, runenv.MsgFault{Reorder: true}},
	{"duplicate", 1, runenv.MsgFault{DupDelays: []float64{0.5, 2}}},
}

// TestSendFateAcrossRuntimes drives fateScript on the virtual-time and the
// real-time runtime, which must give each send the same fate: a short send
// right after the long one reports exactly the long one's arrival, dropped
// or not; a reordered one reports its own, earlier arrival; duplicates
// arrive at send time + delay + their extra delay. The real-time sends are
// made well within the 49 model seconds (49 wall ms) that separate the long
// arrival from the short ones.
func TestSendFateAcrossRuntimes(t *testing.T) {
	for _, rt := range []struct {
		name   string
		runner runenv.Runner
	}{
		{"vtime", vtime.Runner{}},
		{"rtime", rtime.Runner{Speedup: contractSpeedup}},
	} {
		t.Run(rt.name, func(t *testing.T) {
			var reported [5]float64
			var seq [5]uint64
			var got []runenv.Msg
			rt.runner.Run(runenv.Config{
				Procs: 2,
				Delay: func(_, _, bytes int, _ float64) float64 { return float64(bytes) },
				FaultHook: func(_, _, kind, _ int, _, _ float64) runenv.MsgFault {
					return fateScript[kind].fault
				},
			}, []runenv.Body{
				func(env runenv.Env) {
					for kind, s := range fateScript {
						reported[kind] = env.Send(1, kind, nil, s.bytes)
						seq[kind] = env.LastSendSeq()
					}
				},
				// Every copy but the dropped one: two duplicates and four
				// primaries.
				func(env runenv.Env) { got = recvN(t, env, 6) },
			})
			long := reported[0]
			for _, kind := range []int{1, 2, 4} {
				if reported[kind] != long {
					t.Errorf("%s row: reported %v, want exactly the long send's %v", fateScript[kind].row, reported[kind], long)
				}
			}
			if reported[3] >= long {
				t.Errorf("reorder row: reported %v, not before the long send's %v", reported[3], long)
			}
			dups := 0
			for _, m := range got {
				row := fateScript[m.Kind].row
				switch {
				case m.Kind == 1:
					t.Errorf("drop row: a copy was delivered at %v", m.RecvT)
				case m.Seq == seq[m.Kind]:
					if m.RecvT != reported[m.Kind] {
						t.Errorf("%s row: received at %v, want its reported arrival %v", row, m.RecvT, reported[m.Kind])
					}
					if m.Kind == 3 && m.RecvT != m.SendT+1 {
						t.Errorf("reorder row: received at %v, want send time + delay = %v", m.RecvT, m.SendT+1)
					}
				case m.Kind == 4 && m.Seq > seq[4]:
					dd := fateScript[4].fault.DupDelays[m.Seq-seq[4]-1]
					if want := m.SendT + 1 + dd; m.RecvT != want {
						t.Errorf("duplicate row: copy %d received at %v, want send time + delay + %v = %v", m.Seq, m.RecvT, dd, want)
					}
					dups++
				default:
					t.Errorf("%s row: unexpected copy %+v", row, m)
				}
			}
			if dups != 2 {
				t.Errorf("duplicate row: %d copies delivered, want 2", dups)
			}
		})
	}
}
