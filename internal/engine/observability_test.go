package engine

import (
	"bytes"
	"fmt"
	"testing"

	"aiac/internal/loadbalance"
	"aiac/internal/metrics"
	"aiac/internal/report"
	"aiac/internal/trace"
)

// obsArtifacts renders one run's observability exports: the Chrome
// trace-event JSON and the critical-path report.
func obsArtifacts(t *testing.T, mk func() Config) (chrome []byte, critical string, cp *trace.CriticalPath) {
	t.Helper()
	cfg := mk()
	log := &trace.Log{}
	cfg.Trace = log
	cfg.Metrics = &metrics.Sink{}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(log, &buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	cp = trace.Analyze(log.Events())
	return buf.Bytes(), report.CriticalPath(cp, 10), cp
}

// TestObservabilityDeterminism: two runs of the same configuration give a
// byte-identical causally-tagged Chrome trace and critical-path report,
// across the mode grid with and without load balancing.
func TestObservabilityDeterminism(t *testing.T) {
	small, _ := smallBruss()
	var cases []struct {
		name string
		mk   func() Config
	}
	for _, mode := range []Mode{SISC, SIAC, AIACGeneral, AIAC} {
		for _, lb := range []bool{false, true} {
			if lb && mode != AIAC {
				continue // balancing couples to the mutual-exclusion variant
			}
			mode, lb := mode, lb
			name := fmt.Sprintf("%s-lb=%v", mode, lb)
			cases = append(cases, struct {
				name string
				mk   func() Config
			}{name, func() Config {
				cfg := baseConfig(small, 4)
				cfg.Mode = mode
				if lb {
					cfg.LB = loadbalance.DefaultPolicy()
					cfg.LB.Period = 5
					cfg.LB.MinKeep = 2
				}
				return cfg
			}})
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			chrome, crit, cp := obsArtifacts(t, tc.mk)
			if len(chrome) == 0 || crit == "" {
				t.Fatal("empty observability exports")
			}
			if cov := cp.Coverage(); cov < 0.95 {
				t.Errorf("critical path attributes only %.1f%% of the span", 100*cov)
			}
			chrome2, crit2, _ := obsArtifacts(t, tc.mk)
			if !bytes.Equal(chrome, chrome2) {
				t.Errorf("Chrome trace differs between two runs (%d vs %d bytes)", len(chrome), len(chrome2))
			}
			if crit != crit2 {
				t.Errorf("critical-path report differs between two runs\nfirst:\n%s\nsecond:\n%s", crit, crit2)
			}
		})
	}
}
