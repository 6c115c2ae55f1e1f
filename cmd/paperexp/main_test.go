package main

import (
	"slices"
	"testing"

	"aiac/internal/experiments"
)

// TestExperimentIDs holds -exp to what it names: fig1…fig4 one figure each,
// flow and figs all four, every other documented id some experiment, and an
// id nobody documents none. Only the flow ids are run (at quick scale, a
// fraction of a second); the others would take minutes.
func TestExperimentIDs(t *testing.T) {
	flow := []string{"fig1", "fig2", "fig3", "fig4"}
	for _, tc := range []struct {
		id   string
		want []string
	}{
		{"fig1", []string{"fig1"}},
		{"fig2", []string{"fig2"}},
		{"fig3", []string{"fig3"}},
		{"fig4", []string{"fig4"}},
		{"flow", flow},
		{"figs", flow},
	} {
		run, ok := experiment(tc.id)
		if !ok {
			t.Fatalf("-exp %s is unknown", tc.id)
		}
		var got []string
		for _, r := range run(experiments.Quick) {
			got = append(got, r.ID)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("-exp %s printed reports %v, want %v", tc.id, got, tc.want)
		}
	}
	for _, id := range []string{"all", "fig5", "table1", "x1", "modes", "x2", "frequency", "x3", "accuracy",
		"x4", "estimator", "x5", "famine", "x6", "families", "x7", "fullhorizon", "x8", "mapping",
		"x9", "faults", "robustness", "x10", "telemetry", "diag", "diagnostics"} {
		if _, ok := experiment(id); !ok {
			t.Errorf("-exp %s is unknown", id)
		}
	}
	for _, id := range []string{"", "fig", "fig6", "x11", "FIG1"} {
		if _, ok := experiment(id); ok {
			t.Errorf("-exp %q is known", id)
		}
	}
}
