// Command paperexp regenerates the paper's tables and figures plus the
// ablation studies derived from its §6 discussion, printing each artifact
// with its qualitative shape check (paper claim vs measured).
//
// Examples:
//
//	paperexp                 # everything at full scale (minutes)
//	paperexp -scale quick    # everything at smoke-test scale (seconds)
//	paperexp -exp fig5       # one experiment
//	paperexp -o <dir>        # also write one text file per experiment into <dir>
//	paperexp -workers 1      # force serial engine runs (bit-identical outputs)
//
// Independent engine runs within an experiment are fanned across
// GOMAXPROCS cores by default; results are collected in case order, so the
// reports do not depend on the worker count. The full-scale reports are
// embedded in EXPERIMENTS.md, section "Full-scale measured artifacts".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"aiac/internal/experiments"
	"aiac/internal/metrics"
)

func main() {
	var (
		expName = flag.String("exp", "all", "experiment id: all; flow (or figs: Figures 1-4); fig1, fig2, fig3, fig4 (one figure each); fig5; table1;\n"+
			"x1 (modes), x2 (frequency), x3 (accuracy), x4 (estimator), x5 (famine), x6 (families),\n"+
			"x7 (fullhorizon), x8 (mapping), x9 (faults, robustness), x10 (telemetry); diag (diagnostics)")
		scaleN  = flag.String("scale", "full", "scale: quick, full")
		outDir  = flag.String("o", "", "directory to write per-experiment text files")
		workers = flag.Int("workers", 0, "concurrent engine runs (0 = GOMAXPROCS, 1 = serial); outputs are identical at any setting")
	)
	flag.Parse()
	experiments.SetWorkers(*workers)

	var scale experiments.Scale
	switch strings.ToLower(*scaleN) {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fatalf("unknown scale %q", *scaleN)
	}

	run, known := experiment(strings.ToLower(*expName))
	if !known {
		fatalf("unknown experiment %q", *expName)
	}
	reports := run(scale)

	ok, total := 0, 0
	for _, r := range reports {
		fmt.Println(r.String())
		total++
		if r.Pass {
			ok++
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatalf("%v", err)
			}
			path := filepath.Join(*outDir, r.ID+".txt")
			if err := os.WriteFile(path, []byte(r.String()), 0o644); err != nil {
				fatalf("%v", err)
			}
			if err := writeManifest(filepath.Join(*outDir, r.ID+".manifest.json"), r, *scaleN); err != nil {
				fatalf("%v", err)
			}
		}
	}
	fmt.Printf("shape checks: %d/%d OK\n", ok, total)
}

// experiment returns what `-exp id` runs, or false for an id it does not
// know. fig1…fig4 print the one figure they name, picked out of the flow
// experiment by its report id; flow and figs print all four.
func experiment(id string) (func(experiments.Scale) []experiments.Report, bool) {
	switch id {
	case "all":
		return experiments.All, true
	case "flow", "figs":
		return experiments.FlowFigures, true
	case "fig1", "fig2", "fig3", "fig4":
		return func(s experiments.Scale) []experiments.Report {
			for _, r := range experiments.FlowFigures(s) {
				if r.ID == id {
					return []experiments.Report{r}
				}
			}
			panic("paperexp: the flow experiment has no report " + id)
		}, true
	case "fig5":
		return one(experiments.Fig5), true
	case "table1":
		return one(experiments.Table1), true
	case "x1", "modes":
		return one(experiments.ModeMatrix), true
	case "x2", "frequency":
		return one(experiments.LBFrequency), true
	case "x3", "accuracy":
		return one(experiments.LBAccuracy), true
	case "x4", "estimator":
		return one(experiments.LBEstimator), true
	case "x5", "famine":
		return one(experiments.FamineGuard), true
	case "x6", "families":
		return one(func(experiments.Scale) experiments.Report { return experiments.LBFamilies() }), true
	case "x7", "fullhorizon":
		return one(experiments.FullHorizon), true
	case "x8", "mapping":
		return one(experiments.Mapping), true
	case "x9", "faults", "robustness":
		return one(experiments.Robustness), true
	case "x10", "telemetry":
		return one(experiments.LoadTelemetry), true
	case "diag", "diagnostics":
		return one(experiments.Diagnostics), true
	}
	return nil, false
}

// one lists the report of an experiment that makes one.
func one(f func(experiments.Scale) experiments.Report) func(experiments.Scale) []experiments.Report {
	return func(s experiments.Scale) []experiments.Report { return []experiments.Report{f(s)} }
}

// expManifest is the sidecar written next to each <id>.txt under -o: what
// ran, what it concluded, and on which host/revision — enough to tell two
// result directories apart months later.
type expManifest struct {
	ID         string `json:"id"`
	Title      string `json:"title"`
	Scale      string `json:"scale"`
	Pass       bool   `json:"pass"`
	PaperClaim string `json:"paper_claim"`
	Measured   string `json:"measured"`
	CreatedAt  string `json:"created_at"`
	GitRev     string `json:"git_rev,omitempty"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func writeManifest(path string, r experiments.Report, scale string) error {
	var host metrics.Manifest
	host.FillHost()
	m := expManifest{
		ID:         r.ID,
		Title:      r.Title,
		Scale:      strings.ToLower(scale),
		Pass:       r.Pass,
		PaperClaim: r.PaperClaim,
		Measured:   r.Measured,
		CreatedAt:  host.CreatedAt,
		GitRev:     host.GitRev,
		GoVersion:  host.GoVersion,
		OS:         host.OS,
		Arch:       host.Arch,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paperexp: "+format+"\n", args...)
	os.Exit(1)
}
