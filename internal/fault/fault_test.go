package fault

import (
	"errors"
	"reflect"
	"testing"

	"aiac/internal/runenv"
)

// noFault reports whether f carries no fault at all.
func noFault(f runenv.MsgFault) bool {
	return !f.Drop && !f.Reorder && f.ExtraDelay == 0 && len(f.DupDelays) == 0
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name    string
		plan    Plan
		procs   int
		wantErr bool
		wantBad bool // expect a *BadTargetError
	}{
		{name: "zero plan", plan: Plan{}, procs: 4},
		{name: "full rates", plan: Plan{Msg: Rates{Drop: 1, Dup: 1, Reorder: 1, Spike: 1}, Stall: 1, Slow: 1}, procs: 4},
		{name: "rate above one", plan: Plan{Msg: Rates{Drop: 1.5}}, procs: 4, wantErr: true},
		{name: "negative rate", plan: Plan{Stall: -0.1}, procs: 4, wantErr: true},
		{name: "negative factor", plan: Plan{SlowFactor: -2}, procs: 4, wantErr: true},
		{name: "good node", plan: Plan{Nodes: []int{3}}, procs: 4},
		{name: "bad node", plan: Plan{Nodes: []int{4}}, procs: 4, wantErr: true, wantBad: true},
		{name: "negative node", plan: Plan{Nodes: []int{-1}}, procs: 4, wantErr: true, wantBad: true},
		{name: "good link", plan: Plan{Links: [][2]int{{0, 3}}}, procs: 4},
		{name: "bad link", plan: Plan{Links: [][2]int{{0, 9}}}, procs: 4, wantErr: true, wantBad: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate(tc.procs)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
			var bad *BadTargetError
			if got := errors.As(err, &bad); got != tc.wantBad {
				t.Fatalf("errors.As(*BadTargetError) = %v, want %v (err %v)", got, tc.wantBad, err)
			}
			if tc.wantBad && bad.Error() == "" {
				t.Fatal("empty BadTargetError message")
			}
		})
	}
}

// TestZeroPlanHooksAreIdentity pins the satellite requirement: a zero-rate
// plan's wrapped hooks are byte-identical no-ops.
func TestZeroPlanHooksAreIdentity(t *testing.T) {
	p := Plan{Seed: 42}
	if !p.Zero() {
		t.Fatal("zero-rate plan not Zero()")
	}
	inj := p.MustCompile(4)
	base := func(node int, start, units float64) float64 { return 3.25*units + float64(node) + start }
	wrapped := inj.WrapCompute(base)
	for node := 0; node < 4; node++ {
		for i := 0; i < 100; i++ {
			start, units := float64(i)*0.37, float64(i%7)+0.5
			if got, want := wrapped(node, start, units), base(node, start, units); got != want {
				t.Fatalf("wrapped compute differs: %g != %g", got, want)
			}
		}
	}
	for i := 0; i < 1000; i++ {
		f := inj.MsgFault(i%4, (i+1)%4, i%5, 100, float64(i), 0.01)
		if !noFault(f) {
			t.Fatalf("zero plan injected a fault: %+v", f)
		}
	}
	if s := inj.Stats(); s != (Stats{}) {
		t.Fatalf("zero plan counted faults: %+v", s)
	}
}

// TestInjectorDeterministic pins replayability: two injectors compiled from
// the same plan produce the same fault sequence call for call, and a
// different seed produces a different one.
func TestInjectorDeterministic(t *testing.T) {
	plan := Plan{Seed: 7, Msg: Rates{Drop: 0.2, Dup: 0.2, Reorder: 0.2, Spike: 0.2}, Stall: 0.1, Slow: 0.1}
	a, b := plan.MustCompile(4), plan.MustCompile(4)
	other := plan
	other.Seed = 8
	c := other.MustCompile(4)
	diff := 0
	for i := 0; i < 500; i++ {
		from, to, kind := i%4, (i+1+i/4)%4, i%3
		fa := a.MsgFault(from, to, kind, 64, float64(i), 0.02)
		fb := b.MsgFault(from, to, kind, 64, float64(i), 0.02)
		fc := c.MsgFault(from, to, kind, 64, float64(i), 0.02)
		if fa.Drop != fb.Drop || fa.Reorder != fb.Reorder || fa.ExtraDelay != fb.ExtraDelay ||
			len(fa.DupDelays) != len(fb.DupDelays) {
			t.Fatalf("call %d: same seed diverged: %+v vs %+v", i, fa, fb)
		}
		if fa.Drop != fc.Drop || fa.Reorder != fc.Reorder || fa.ExtraDelay != fc.ExtraDelay {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical fault sequences")
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if s := a.Stats(); s.Dropped == 0 || s.Duplicated == 0 || s.Reordered == 0 || s.Spiked == 0 {
		t.Fatalf("rates 0.2 over 500 messages injected nothing: %+v", s)
	}
}

// TestWrapComputeTable drives the compute-fault wrapper through the
// deterministic always/never corners and the node filter.
func TestWrapComputeTable(t *testing.T) {
	base := func(node int, start, units float64) float64 { return units }
	cases := []struct {
		name string
		plan Plan
		node int
		want float64 // for units = 2
	}{
		{name: "no faults", plan: Plan{}, node: 0, want: 2},
		{name: "always slow", plan: Plan{Slow: 1, SlowFactor: 4}, node: 0, want: 8},
		{name: "always stall", plan: Plan{Stall: 1, StallFactor: 25}, node: 0, want: 50},
		{name: "slow and stall compound", plan: Plan{Slow: 1, SlowFactor: 4, Stall: 1, StallFactor: 25}, node: 0, want: 200},
		{name: "node filter hits", plan: Plan{Slow: 1, SlowFactor: 4, Nodes: []int{1}}, node: 1, want: 8},
		{name: "node filter misses", plan: Plan{Slow: 1, SlowFactor: 4, Nodes: []int{1}}, node: 0, want: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wrapped := tc.plan.MustCompile(4).WrapCompute(base)
			if got := wrapped(tc.node, 0, 2); got != tc.want {
				t.Fatalf("wrapped(%d, 0, 2) = %g, want %g", tc.node, got, tc.want)
			}
		})
	}
}

// TestMsgFaultDelayWrapTable checks the delay-shaped faults against the
// deterministic always-fire corners: spikes scale the modeled delay and
// reordered copies carry bounded jitter.
func TestMsgFaultDelayWrapTable(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		chk  func(t *testing.T, f runenv.MsgFault)
	}{
		{
			name: "always drop",
			plan: Plan{Msg: Rates{Drop: 1}},
			chk: func(t *testing.T, f runenv.MsgFault) {
				if !f.Drop {
					t.Fatal("not dropped")
				}
			},
		},
		{
			name: "always spike 10x",
			plan: Plan{Msg: Rates{Spike: 1}, SpikeFactor: 10},
			chk: func(t *testing.T, f runenv.MsgFault) {
				if f.ExtraDelay != 0.5 { // 10 × delay 0.05
					t.Fatalf("spike extra delay %g, want 0.5", f.ExtraDelay)
				}
			},
		},
		{
			name: "always dup with bounded jitter",
			plan: Plan{Msg: Rates{Dup: 1}, JitterFactor: 2},
			chk: func(t *testing.T, f runenv.MsgFault) {
				if len(f.DupDelays) != 1 {
					t.Fatalf("dup delays %v", f.DupDelays)
				}
				if d := f.DupDelays[0]; d < 0 || d >= 2*0.05 {
					t.Fatalf("dup jitter %g outside [0, 0.1)", d)
				}
			},
		},
		{
			name: "always reorder with bounded jitter",
			plan: Plan{Msg: Rates{Reorder: 1}, JitterFactor: 2},
			chk: func(t *testing.T, f runenv.MsgFault) {
				if !f.Reorder {
					t.Fatal("not reordered")
				}
				if f.ExtraDelay < 0 || f.ExtraDelay >= 2*0.05 {
					t.Fatalf("reorder jitter %g outside [0, 0.1)", f.ExtraDelay)
				}
			},
		},
		{
			name: "kind filter misses",
			plan: Plan{Msg: Rates{Drop: 1}, Kinds: []int{9}},
			chk: func(t *testing.T, f runenv.MsgFault) {
				if !noFault(f) {
					t.Fatalf("faulted a filtered kind: %+v", f)
				}
			},
		},
		{
			name: "link filter misses",
			plan: Plan{Msg: Rates{Drop: 1}, Links: [][2]int{{2, 3}}},
			chk: func(t *testing.T, f runenv.MsgFault) {
				if !noFault(f) {
					t.Fatalf("faulted a filtered link: %+v", f)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := tc.plan.MustCompile(4)
			tc.chk(t, inj.MsgFault(0, 1, 1, 64, 1.0, 0.05))
		})
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec      string
		wantErr   bool
		wantScope string
		check     func(p Plan) bool
	}{
		{spec: "", check: func(p Plan) bool { return p.Zero() }},
		{spec: "drop=0.05", check: func(p Plan) bool { return p.Msg.Drop == 0.05 }},
		{
			spec:      "drop=0.1,dup=0.02,reorder=0.03,spike=0.04,stall=0.001,slow=0.01,scope=lb",
			wantScope: "lb",
			check: func(p Plan) bool {
				return p.Msg == Rates{Drop: 0.1, Dup: 0.02, Reorder: 0.03, Spike: 0.04} &&
					p.Stall == 0.001 && p.Slow == 0.01
			},
		},
		{spec: "delay=0.2", check: func(p Plan) bool { return p.Msg.Spike == 0.2 }}, // alias
		{spec: "slow-factor=8, spike-factor=20", check: func(p Plan) bool { return p.SlowFactor == 8 && p.SpikeFactor == 20 }},
		{spec: "SCOPE=LB", wantScope: "lb", check: func(p Plan) bool { return p.Zero() }},
		{spec: "drop", wantErr: true},
		{spec: "drop=abc", wantErr: true},
		{spec: "unknown=1", wantErr: true},
	}
	for _, tc := range cases {
		p, scope, err := ParseSpec(tc.spec)
		if (err != nil) != tc.wantErr {
			t.Fatalf("ParseSpec(%q) err = %v, wantErr %v", tc.spec, err, tc.wantErr)
		}
		if err != nil {
			continue
		}
		if scope != tc.wantScope {
			t.Fatalf("ParseSpec(%q) scope = %q, want %q", tc.spec, scope, tc.wantScope)
		}
		if tc.check != nil && !tc.check(p) {
			t.Fatalf("ParseSpec(%q) = %+v fails check", tc.spec, p)
		}
	}
}

func TestPlanString(t *testing.T) {
	if s := (Plan{}).String(); s != "none" {
		t.Fatalf("zero plan renders %q", s)
	}
	p := Plan{Seed: 3, Msg: Rates{Drop: 0.1}}
	if s := p.String(); s == "" || s == "none" {
		t.Fatalf("non-zero plan renders %q", s)
	}
}

// TestStatsAddSumsEveryField fails when a fate is added to Stats without
// being summed by Add: it would vanish from every distributed run's
// Result.FaultStats.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Uint64 {
			t.Fatalf("Stats.%s is not a uint64 counter; teach Add and this test about it", av.Type().Field(i).Name)
		}
		av.Field(i).SetUint(uint64(i + 1))
		bv.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Uint(), uint64(101*(i+1)); got != want {
			t.Errorf("Stats.%s = %d after Add, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}
