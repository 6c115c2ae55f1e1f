package engine

import (
	"testing"

	"aiac/internal/loadbalance"
	"aiac/internal/runenv"
	"aiac/internal/trace"
	"aiac/internal/vtime"
)

// blockingSendEnv models what a real transport does to the caller's clock:
// Send returns later than it was called (a blocking socket write), so a
// clock read after it is not the send time.
type blockingSendEnv struct{ runenv.Env }

func (e blockingSendEnv) Send(to, kind int, payload any, bytes int) float64 {
	arrival := e.Env.Send(to, kind, payload, bytes)
	e.Env.Sleep(5e-5)
	return arrival
}

// sendTimes is an Observer keeping every delivered message's send time under
// its causal identity (From, Seq).
type sendTimes map[[2]uint64]float64

func (s sendTimes) MsgDelivered(m runenv.Msg, _ int) {
	s[[2]uint64{uint64(m.From), m.Seq}] = m.SendT
}

// blockingSendRunner runs the world in virtual time with every Env wrapped
// in blockingSendEnv and the deliveries recorded.
type blockingSendRunner struct{ sent sendTimes }

func (r blockingSendRunner) Run(cfg runenv.Config, bodies []runenv.Body) float64 {
	cfg.Observer = r.sent
	wrapped := make([]runenv.Body, len(bodies))
	for i, body := range bodies {
		body := body
		wrapped[i] = func(env runenv.Env) { body(blockingSendEnv{env}) }
	}
	return vtime.Runner{}.Run(cfg, wrapped)
}

// TestSendEventsStampedBeforeSend: every send-describing trace event starts
// at the time the runtime stamped on the message, not at whatever the clock
// read once Send had returned. A T0 taken after a slow Send lands past the
// receiver's delivery stamp, and trace.Federate then builds a Wire span that
// runs backward (the TestDistTraceFederatedEndToEnd flake).
func TestSendEventsStampedBeforeSend(t *testing.T) {
	small, _ := smallBruss()
	cases := []struct {
		name  string
		mk    func() Config
		notes []string // control notes the case must exercise
	}{
		{"aiac-lb-central", func() Config {
			cfg := baseConfig(small, 4)
			cfg.LB = loadbalance.DefaultPolicy()
			cfg.LB.Period = 5
			cfg.LB.MinKeep = 2
			return cfg
		}, []string{"state-conv", "confirm", "verify", "lb-ack"}},
		{"aiac-ring", func() Config {
			cfg := baseConfig(small, 4)
			cfg.Detection = DetectRing
			return cfg
		}, []string{"token", "ring-halt"}},
		{"sisc-barrier", func() Config {
			cfg := baseConfig(small, 4)
			cfg.Mode = SISC
			return cfg
		}, []string{"barrier-arrive", "barrier-go"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.mk()
			log := &trace.Log{}
			cfg.Trace = log
			sent := sendTimes{}
			cfg.Runner = blockingSendRunner{sent}
			res, err := Run(cfg)
			if err != nil || !res.Converged {
				t.Fatalf("converged=%v err=%v", res != nil && res.Converged, err)
			}
			checked := map[trace.Kind]int{}
			notes := map[string]bool{}
			for _, ev := range log.Events() {
				switch ev.Kind {
				case trace.SendLeft, trace.SendRight, trace.SendLB, trace.Control:
				default:
					continue
				}
				sendT, delivered := sent[[2]uint64{uint64(ev.Node), ev.Seq}]
				if !delivered {
					continue // still in flight at the halt
				}
				if ev.T0 != sendT {
					t.Fatalf("T0 %.9g is not the send time %.9g: %+v", ev.T0, sendT, ev)
				}
				checked[ev.Kind]++
				notes[ev.Note] = true
			}
			if checked[trace.SendLeft] == 0 || checked[trace.SendRight] == 0 {
				t.Fatalf("no boundary sends checked: %v", checked)
			}
			if cfg.LB.Enabled && checked[trace.SendLB] == 0 {
				t.Fatalf("no LB transfer checked: %v", checked)
			}
			for _, want := range tc.notes {
				if !notes[want] {
					t.Errorf("no %q control send checked (saw %v)", want, notes)
				}
			}
		})
	}
}
