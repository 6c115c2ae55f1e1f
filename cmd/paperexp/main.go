// Command paperexp regenerates the paper's tables and figures plus the
// ablation studies derived from its §6 discussion, printing each artifact
// with its qualitative shape check (paper claim vs measured).
//
// Examples:
//
//	paperexp                 # everything at full scale (minutes)
//	paperexp -scale quick    # everything at smoke-test scale (seconds)
//	paperexp -exp fig5       # one experiment
//	paperexp -o results/     # also write one text file per experiment
//	paperexp -workers 1      # force serial engine runs (bit-identical outputs)
//
// Independent engine runs within an experiment are fanned across
// GOMAXPROCS cores by default; results are collected in case order, so the
// reports do not depend on the worker count.
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
		expName = flag.String("exp", "all", "experiment id: all; flow (or figs, fig1, fig2, fig3, fig4); fig5; table1;\n"+
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

	var reports []experiments.Report
	switch strings.ToLower(*expName) {
	case "all":
		reports = experiments.All(scale)
	case "fig1", "fig2", "fig3", "fig4", "figs", "flow":
		reports = experiments.FlowFigures(scale)
	case "fig5":
		reports = []experiments.Report{experiments.Fig5(scale)}
	case "table1":
		reports = []experiments.Report{experiments.Table1(scale)}
	case "x1", "modes":
		reports = []experiments.Report{experiments.ModeMatrix(scale)}
	case "x2", "frequency":
		reports = []experiments.Report{experiments.LBFrequency(scale)}
	case "x3", "accuracy":
		reports = []experiments.Report{experiments.LBAccuracy(scale)}
	case "x4", "estimator":
		reports = []experiments.Report{experiments.LBEstimator(scale)}
	case "x5", "famine":
		reports = []experiments.Report{experiments.FamineGuard(scale)}
	case "x6", "families":
		reports = []experiments.Report{experiments.LBFamilies()}
	case "x7", "fullhorizon":
		reports = []experiments.Report{experiments.FullHorizon(scale)}
	case "x8", "mapping":
		reports = []experiments.Report{experiments.Mapping(scale)}
	case "x9", "faults", "robustness":
		reports = []experiments.Report{experiments.Robustness(scale)}
	case "x10", "telemetry":
		reports = []experiments.Report{experiments.LoadTelemetry(scale)}
	case "diag", "diagnostics":
		reports = []experiments.Report{experiments.Diagnostics(scale)}
	default:
		fatalf("unknown experiment %q", *expName)
	}

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
