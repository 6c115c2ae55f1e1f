// Package report renders telemetry exports (internal/metrics JSONL runs)
// into ASCII dashboards: residual-decay timelines, load-distribution-over-
// time charts, message/fault statistics and per-node summary tables, plus a
// side-by-side diff of two runs (the LB-on vs LB-off comparison at the heart
// of the paper). It is the rendering layer behind cmd/aiacreport.
package report

import (
	"fmt"
	"math"
	"strings"

	"aiac/internal/asciiplot"
	"aiac/internal/metrics"
	"aiac/internal/stats"
)

// maxPlottedNodes bounds how many per-node series one chart overlays; larger
// worlds plot evenly spaced representative ranks.
const maxPlottedNodes = 6

// Options controls rendering.
type Options struct {
	// Width is the plot width in characters (default 64).
	Width int
	// Height is the plot height in rows (default 16).
	Height int
}

func (o Options) withDefaults() Options {
	if o.Width <= 0 {
		o.Width = 64
	}
	if o.Height <= 0 {
		o.Height = 16
	}
	return o
}

// Render produces the full dashboard for one run.
func Render(run *metrics.Run, opt Options) string {
	opt = opt.withDefaults()
	var b strings.Builder
	writeHeader(&b, run)
	writeResidualPlot(&b, run, opt)
	writeLoadPlot(&b, run, opt)
	writeMessaging(&b, run)
	writeNodeTable(&b, run)
	writeTimeline(&b, run)
	return b.String()
}

func title(b *strings.Builder, s string) {
	fmt.Fprintf(b, "\n== %s ==\n", s)
}

func writeHeader(b *strings.Builder, run *metrics.Run) {
	m := run.Manifest
	name := m.Name
	if name == "" {
		name = "(unnamed run)"
	}
	fmt.Fprintf(b, "run %s: %s, %d nodes", name, orDash(m.Mode), m.P)
	if m.Problem != "" {
		fmt.Fprintf(b, ", problem %s (%d comps, halo %d)", m.Problem, m.Components, m.Halo)
	}
	if m.Cluster != "" {
		fmt.Fprintf(b, ", cluster %s", m.Cluster)
	}
	fmt.Fprintf(b, "\n")
	fmt.Fprintf(b, "tol %.3g, seed %d, detection %s", m.Tol, m.Seed, orDash(m.Detection))
	if m.LB != nil {
		fmt.Fprintf(b, ", LB on (period %d, threshold %.3g, lambda %.3g, min-keep %d, estimator %s)",
			m.LB.Period, m.LB.Threshold, m.LB.Lambda, m.LB.MinKeep, m.LB.Estimator)
	} else {
		fmt.Fprintf(b, ", LB off")
	}
	if m.FaultSpec != "" || m.FaultSeed != 0 {
		fmt.Fprintf(b, ", faults %q (seed %d)", m.FaultSpec, m.FaultSeed)
	}
	fmt.Fprintf(b, "\n")
	if m.CreatedAt != "" || m.GoVersion != "" {
		fmt.Fprintf(b, "recorded %s", orDash(m.CreatedAt))
		if m.GitRev != "" {
			fmt.Fprintf(b, " at rev %s", m.GitRev)
		}
		if m.GoVersion != "" {
			fmt.Fprintf(b, " (%s %s/%s)", m.GoVersion, m.OS, m.Arch)
		}
		if m.NumCPU > 0 {
			fmt.Fprintf(b, ", %d cpus, gomaxprocs %d", m.NumCPU, m.GoMaxProcs)
		}
		fmt.Fprintf(b, "\n")
	}
	out := m.Outcome
	if out == nil {
		fmt.Fprintf(b, "outcome: (run did not finish)\n")
		return
	}
	status := "CONVERGED"
	if !out.Converged {
		status = "DID NOT CONVERGE"
	}
	if out.Canceled {
		status = "CANCELED"
	}
	if out.TimedOut {
		status += " (timed out)"
	}
	fmt.Fprintf(b, "outcome: %s in %.4g virtual s", status, out.Time)
	if out.WallSeconds > 0 {
		fmt.Fprintf(b, " (%.3g wall s)", out.WallSeconds)
	}
	fmt.Fprintf(b, ", %d total iterations, %.4g work units, max residual %.3g\n",
		out.TotalIters, out.TotalWork, out.MaxResidual)
	if m.LB != nil {
		fmt.Fprintf(b, "balancing: %d transfers (%d components), %d rejects, %d retries\n",
			out.LBTransfers, out.LBCompsMoved, out.LBRejects, out.LBRetries)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// plottedRanks picks up to maxPlottedNodes representative ranks, always
// including the first and last.
func plottedRanks(n int) []int {
	if n <= maxPlottedNodes {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, maxPlottedNodes)
	for i := range out {
		out[i] = i * (n - 1) / (maxPlottedNodes - 1)
	}
	return out
}

func writeResidualPlot(b *strings.Builder, run *metrics.Run, opt Options) {
	var series []asciiplot.Series
	for _, r := range plottedRanks(len(run.Samples)) {
		var xs, ys []float64
		for _, sm := range run.Samples[r] {
			if sm.Residual <= 0 {
				continue // log axis cannot show exact zeros
			}
			xs = append(xs, sm.T)
			ys = append(ys, sm.Residual)
		}
		if len(xs) == 0 {
			continue
		}
		series = append(series, asciiplot.Series{Name: fmt.Sprintf("node %d", r), X: xs, Y: ys})
	}
	title(b, "residual decay")
	if len(series) == 0 {
		fmt.Fprintf(b, "(no samples)\n")
		return
	}
	b.WriteString(asciiplot.Plot(asciiplot.Config{
		Width: opt.Width, Height: opt.Height, LogY: true,
		XLabel: "virtual s", YLabel: "local residual",
	}, series...))
}

func writeLoadPlot(b *strings.Builder, run *metrics.Run, opt Options) {
	var series []asciiplot.Series
	for _, r := range plottedRanks(len(run.Samples)) {
		var xs, ys []float64
		for _, sm := range run.Samples[r] {
			xs = append(xs, sm.T)
			ys = append(ys, float64(sm.Count))
		}
		if len(xs) == 0 {
			continue
		}
		series = append(series, asciiplot.Series{Name: fmt.Sprintf("node %d", r), X: xs, Y: ys})
	}
	title(b, "load distribution (components owned)")
	if len(series) == 0 {
		fmt.Fprintf(b, "(no samples)\n")
		return
	}
	b.WriteString(asciiplot.Plot(asciiplot.Config{
		Width: opt.Width, Height: opt.Height,
		XLabel: "virtual s", YLabel: "components",
	}, series...))
}

func writeMessaging(b *strings.Builder, run *metrics.Run) {
	title(b, "messaging")
	dur := runDuration(run)
	rate := func(n uint64) string {
		if dur <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.4g/s", float64(n)/dur)
	}
	fmt.Fprintf(b, "data-plane deliveries: %d (%s), control deliveries: %d (%s)\n",
		run.Delivered, rate(run.Delivered), run.Control, rate(run.Control))
	fmt.Fprintf(b, "deepest mailbox: %.0f\n", run.QueueMax)
	if run.Latency.Count > 0 {
		fmt.Fprintf(b, "delivery latency: mean %.3g s, p50 <= %.3g s, p99 <= %.3g s (%d observed)\n",
			run.Latency.Mean(), run.Latency.Quantile(0.5), run.Latency.Quantile(0.99), run.Latency.Count)
	}
	var totalFaults uint64
	for _, f := range run.Faults {
		totalFaults += f
	}
	if totalFaults > 0 {
		fmt.Fprintf(b, "injected faults reaching nodes: %d (%s)\n", totalFaults, rate(totalFaults))
	}
}

// runDuration is the run's virtual span: the sealed outcome's time when
// present, else the newest sample.
func runDuration(run *metrics.Run) float64 {
	if out := run.Manifest.Outcome; out != nil && out.Time > 0 {
		return out.Time
	}
	end := 0.0
	for _, row := range run.Samples {
		if len(row) > 0 && row[len(row)-1].T > end {
			end = row[len(row)-1].T
		}
	}
	return end
}

func writeNodeTable(b *strings.Builder, run *metrics.Run) {
	title(b, "per-node summary")
	t := stats.NewTable("node", "iters", "residual", "comps", "idle%", "halo age", "sent", "recv", "faults")
	for r, row := range run.Samples {
		if len(row) == 0 {
			t.AddRow(r, "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		last := row[len(row)-1]
		var idles []float64
		for _, sm := range row[1:] {
			idles = append(idles, sm.IdleFrac)
		}
		idle := "-"
		if len(idles) > 0 {
			idle = fmt.Sprintf("%.1f", 100*stats.Mean(idles))
		}
		var fcount uint64
		if r < len(run.Faults) {
			fcount = run.Faults[r]
		}
		t.AddRow(r, last.Iter, fmt.Sprintf("%.3g", last.Residual), last.Count, idle,
			fmt.Sprintf("%.3g", last.HaloAge), last.MsgsSent, last.MsgsRecv, fcount)
	}
	b.WriteString(t.String())
}

func writeTimeline(b *strings.Builder, run *metrics.Run) {
	if len(run.Events) == 0 {
		return
	}
	title(b, "convergence timeline")
	// first local-convergence transition per node, then detector activity
	firstConv := map[int]float64{}
	relapses := 0
	var rounds int
	haltT := math.NaN()
	haltDetail := ""
	for _, ev := range run.Events {
		switch ev.Name {
		case "conv":
			if _, ok := firstConv[ev.Node]; !ok {
				firstConv[ev.Node] = ev.T
			}
		case "relapse":
			relapses++
		case "verify-round":
			rounds++
		case "halt":
			haltT = ev.T
			haltDetail = ev.Detail
		}
	}
	for r := 0; r < len(run.Samples); r++ {
		if t, ok := firstConv[r]; ok {
			fmt.Fprintf(b, "t=%-12.6g node %d first locally converged\n", t, r)
		}
	}
	if relapses > 0 {
		fmt.Fprintf(b, "%d convergence relapses\n", relapses)
	}
	if rounds > 0 {
		fmt.Fprintf(b, "%d verification rounds opened\n", rounds)
	}
	if !math.IsNaN(haltT) {
		suffix := ""
		if haltDetail != "" {
			suffix = " (" + haltDetail + ")"
		}
		fmt.Fprintf(b, "t=%-12.6g HALT broadcast%s\n", haltT, suffix)
	}
	if run.EventsDropped > 0 {
		fmt.Fprintf(b, "(%d events beyond the buffer cap were dropped)\n", run.EventsDropped)
	}
}
