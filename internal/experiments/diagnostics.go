package experiments

import (
	"fmt"
	"strings"

	"aiac/internal/asciiplot"
	"aiac/internal/engine"
	"aiac/internal/grid"
	"aiac/internal/metrics"
	"aiac/internal/stats"
)

// Diagnostics is not a paper artifact: it exposes the inner dynamics of one
// balanced Table-1-style run — per-node residual decay (with the fitted
// contraction factor) and the component-count migration over time — as the
// kind of evidence the divergence analysis in EXPERIMENTS.md rests on.
// Available through `paperexp -exp diag`.
func Diagnostics(scale Scale) Report {
	bc := mkBruss(120, 0.5, 0.005, 1e-6)
	if scale == Full {
		bc = mkBruss(240, 1, 0.01, 1e-6)
	}
	cl := grid.HeteroGrid15(grid.HeteroGridConfig{Seed: 3, MultiUser: true})
	cfg := baseCfg(bc, engine.AIAC, 15, cl, 41)
	cfg.LB = lbPolicy(20)
	sink := &metrics.Sink{Cap: cfg.MaxIter + 1} // above any sweep count: never thins
	cfg.Metrics = sink
	res := run(cfg)
	if !res.Converged {
		panic("experiments: diagnostics run did not converge")
	}
	// every 10th sweep of each node
	rows := make([][]metrics.NodeSample, 15)
	for r := range rows {
		for _, sm := range sink.Samples(r) {
			if sm.Iter%10 == 0 {
				rows[r] = append(rows[r], sm)
			}
		}
	}

	var b strings.Builder

	// residual decay of the fastest and slowest node
	fast, slow := 0, 0
	for i, n := range cl.Nodes {
		if n.Speed > cl.Nodes[fast].Speed {
			fast = i
		}
		if n.Speed < cl.Nodes[slow].Speed {
			slow = i
		}
	}
	tf, rf := filterPositive(residualSeries(rows[fast]))
	ts, rs := filterPositive(residualSeries(rows[slow]))
	b.WriteString(asciiplot.Plot(asciiplot.Config{
		Width: 70, Height: 14, LogY: true,
		Title:  "residual decay (log y)",
		XLabel: "virtual time (s)", YLabel: "residual",
	},
		asciiplot.Series{Name: fmt.Sprintf("fastest node (%d)", fast), X: tf, Y: rf},
		asciiplot.Series{Name: fmt.Sprintf("slowest node (%d)", slow), X: ts, Y: rs},
	))

	// contraction factors per node (DecayRate skips non-positive entries)
	rates := make([]float64, 0, 15)
	for _, row := range rows {
		_, series := residualSeries(row)
		if rate, r2 := stats.DecayRate(series); rate > 0 && rate < 1 && r2 > 0.5 {
			rates = append(rates, rate)
		}
	}
	rsum := stats.Summarize(rates)

	// migration of component counts over time (sampled rows)
	tab := stats.NewTable(append([]string{"iter"}, nodeHeaders(15)...)...)
	maxLen := 0
	for _, row := range rows {
		if len(row) > maxLen {
			maxLen = len(row)
		}
	}
	step := maxLen / 8
	if step < 1 {
		step = 1
	}
	for s := 0; s < maxLen; s += step {
		cells := make([]any, 0, 16)
		cells = append(cells, s*10)
		for _, row := range rows {
			if s < len(row) {
				cells = append(cells, row[s].Count)
			} else {
				cells = append(cells, "-")
			}
		}
		tab.AddRow(cells...)
	}
	finals := make([]any, 0, 16)
	finals = append(finals, "final")
	for _, c := range res.FinalCount {
		finals = append(finals, c)
	}
	tab.AddRow(finals...)
	b.WriteString("\ncomponent counts per node over time (rows = sampled iterations):\n")
	b.WriteString(tab.String())

	return Report{
		ID:    "diag",
		Title: "run diagnostics: residual decay and component migration (balanced grid run)",
		PaperClaim: "(not a paper artifact) the residual decays geometrically and components " +
			"migrate from slow to fast machines",
		Measured: fmt.Sprintf("per-node contraction factors %.3f-%.3f (mean %.3f); %d components moved",
			rsum.Min, rsum.Max, rsum.Mean, res.LBCompsMoved),
		Pass: len(rates) > 0 && rsum.Max < 1,
		Text: b.String(),
	}
}

// residualSeries returns (times, residuals) of one node's samples.
func residualSeries(row []metrics.NodeSample) (ts, rs []float64) {
	for _, sm := range row {
		ts = append(ts, sm.T)
		rs = append(rs, sm.Residual)
	}
	return ts, rs
}

// filterPositive drops points with non-positive y so they can go on a log
// axis (the first iteration's residual can be 0 before any update).
func filterPositive(xs, ys []float64) (fx, fy []float64) {
	for i := range ys {
		if ys[i] > 0 {
			fx = append(fx, xs[i])
			fy = append(fy, ys[i])
		}
	}
	return fx, fy
}

func nodeHeaders(p int) []string {
	out := make([]string, p)
	for i := range out {
		out[i] = fmt.Sprintf("n%d", i)
	}
	return out
}
