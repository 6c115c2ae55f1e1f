package runenv

import "testing"

// TestNormalize drives Config.Normalize through a table: nil hooks get the
// documented defaults, provided hooks (including the fault hook) survive
// untouched, and Normalize never installs a fault hook on its own — no hook
// means a perfectly reliable network.
func TestNormalize(t *testing.T) {
	identityCompute := func(_ int, _, u float64) float64 { return u * 2 }
	constDelay := func(_, _, _ int, _ float64) float64 { return 0.25 }
	dropAll := func(_, _, _, _ int, _, _ float64) MsgFault { return MsgFault{Drop: true} }

	cases := []struct {
		name        string
		cfg         Config
		wantCompute float64 // ComputeTime(3, 0, 7.5)
		wantDelay   float64 // Delay(0, 1, 100, 5)
		wantFault   *bool   // nil: hook must be nil; else expected Drop of the hook's verdict
	}{
		{
			name:        "empty config gets identity compute and zero delay",
			cfg:         Config{},
			wantCompute: 7.5,
			wantDelay:   0,
		},
		{
			name:        "provided hooks are kept",
			cfg:         Config{ComputeTime: identityCompute, Delay: constDelay},
			wantCompute: 15,
			wantDelay:   0.25,
		},
		{
			name:        "fault hook is kept",
			cfg:         Config{FaultHook: dropAll},
			wantCompute: 7.5,
			wantDelay:   0,
			wantFault:   boolPtr(true),
		},
		{
			name:        "no fault hook is installed by default",
			cfg:         Config{ComputeTime: identityCompute},
			wantCompute: 15,
			wantDelay:   0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.Normalize()
			if cfg.ComputeTime == nil || cfg.Delay == nil {
				t.Fatal("Normalize must install default compute/delay hooks")
			}
			if got := cfg.ComputeTime(3, 0, 7.5); got != tc.wantCompute {
				t.Fatalf("ComputeTime = %g, want %g", got, tc.wantCompute)
			}
			if got := cfg.Delay(0, 1, 100, 5); got != tc.wantDelay {
				t.Fatalf("Delay = %g, want %g", got, tc.wantDelay)
			}
			if tc.wantFault == nil {
				if cfg.FaultHook != nil {
					t.Fatal("Normalize installed a fault hook on its own")
				}
				return
			}
			if cfg.FaultHook == nil {
				t.Fatal("Normalize lost the provided fault hook")
			}
			if got := cfg.FaultHook(0, 1, 1, 8, 0, 0.1); got.Drop != *tc.wantFault {
				t.Fatalf("FaultHook verdict %+v, want Drop=%v", got, *tc.wantFault)
			}
		})
	}
}

func boolPtr(b bool) *bool { return &b }

// TestDecide pins the fate rule row by row: a copy that is not reordered is
// clamped to the last in-order arrival, equal allowed; a dropped one reports
// the clamped arrival but moves no FIFO state; a reordered one is neither
// clamped nor recorded; duplicates arrive at now + delay + their delay.
func TestDecide(t *testing.T) {
	cases := []struct {
		name            string
		f               MsgFault
		last            float64
		arrival, newest float64 // Arrival and Last
		deliver         bool
	}{
		{"unclamped", MsgFault{}, 2, 11, 11, true},
		{"clamped-to-equal", MsgFault{}, 20, 20, 20, true},
		{"extra-delay", MsgFault{ExtraDelay: 4}, 2, 15, 15, true},
		{"drop-unclamped", MsgFault{Drop: true}, 2, 11, 2, false},
		{"drop-clamped", MsgFault{Drop: true}, 20, 20, 20, false},
		{"reorder-not-clamped", MsgFault{Reorder: true}, 20, 11, 20, true},
		{"reorder-not-recorded", MsgFault{Reorder: true, ExtraDelay: 30}, 20, 41, 20, true},
		{"dup-primary-clamped", MsgFault{DupDelays: []float64{0.5, 3}}, 20, 20, 20, true},
	}
	for _, c := range cases {
		got := Decide(10, 1, c.f, c.last)
		if got.Arrival != c.arrival || got.Last != c.newest || got.Deliver != c.deliver {
			t.Errorf("%s: arrival %v last %v deliver %v, want %v %v %v",
				c.name, got.Arrival, got.Last, got.Deliver, c.arrival, c.newest, c.deliver)
		}
		if got.Dups() != len(c.f.DupDelays) {
			t.Errorf("%s: %d duplicates, want %d", c.name, got.Dups(), len(c.f.DupDelays))
		}
		for i, dd := range c.f.DupDelays {
			if at := got.DupArrival(i); at != 11+dd {
				t.Errorf("%s: duplicate %d arrives at %v, want %v", c.name, i, at, 11+dd)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { Decide(10, 1, MsgFault{DupDelays: []float64{1}}, 20) }); n != 0 {
		t.Errorf("Decide allocates %v times per call", n)
	}
}
