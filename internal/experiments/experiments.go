// Package experiments drives the reproduction of every table and figure of
// the paper's evaluation (§6) plus the ablations suggested by its
// discussion: each experiment configures the engine on a platform preset,
// runs it on the deterministic virtual-time runtime, renders the same rows
// or series the paper reports, and checks the qualitative "shape" the paper
// claims (who wins, roughly by how much, in which context).
//
// Every experiment exists in two scales: Quick (seconds, used by the test
// suite and benchmarks) and Full (the sizes reported in EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"aiac/internal/brusselator"
	"aiac/internal/engine"
	"aiac/internal/grid"
	"aiac/internal/loadbalance"
)

// Scale selects the experiment size.
type Scale int

const (
	// Quick runs in seconds; used by tests and benchmarks.
	Quick Scale = iota
	// Full runs the sizes recorded in EXPERIMENTS.md.
	Full
)

// Report is the outcome of one reproduced experiment.
type Report struct {
	// ID is the paper artifact ("fig5", "table1", "x2-frequency", ...).
	ID string
	// Title is a one-line description.
	Title string
	// PaperClaim summarizes what the paper reports for this artifact.
	PaperClaim string
	// Measured summarizes what this reproduction measured.
	Measured string
	// Pass reports whether the claim's qualitative shape held.
	Pass bool
	// Text is the full rendered artifact (table, plot, Gantt chart).
	Text string
}

// String renders the report for the terminal.
func (r Report) String() string {
	status := "SHAPE OK"
	if !r.Pass {
		status = "SHAPE DIVERGES"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s [%s]\n", r.ID, r.Title, status)
	fmt.Fprintf(&b, "paper:    %s\n", r.PaperClaim)
	fmt.Fprintf(&b, "measured: %s\n", r.Measured)
	if r.Text != "" {
		b.WriteString(r.Text)
		if !strings.HasSuffix(r.Text, "\n") {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// holds is the clause a report's Measured line states for an outcome: yes
// where the comparison behind ok holds, no where it does not. The line is
// built from the booleans that set Pass, so it cannot claim what failed.
func holds(ok bool, yes, no string) string {
	if ok {
		return yes
	}
	return no
}

// brussCase bundles a Brusselator instance sized for an experiment.
type brussCase struct {
	prob *brusselator.Problem
	tol  float64
}

func mkBruss(n int, horizon, dt, tol float64) brussCase {
	p := brusselator.DefaultParams(n, dt)
	p.T = horizon
	return brussCase{prob: brusselator.New(p), tol: tol}
}

// lbPolicy returns the balancing policy the experiments run: the paper's
// algorithm with two measured adjustments. The famine guard is 2 components
// (the halo is one cell and nodes hold 8-16 cells, so the guard must leave
// room to shed most of a node's load), and the load estimate is smoothed
// with factor 0.2 — the raw residual fluctuates enough between iterations
// to cause useless back-and-forth transfers; smoothing cuts migration ~5x
// at equal or better end-to-end times (the x4 experiment carries a
// raw-residual row for the paper-literal behavior).
func lbPolicy(period int) loadbalance.Policy {
	pol := loadbalance.DefaultPolicy()
	pol.Period = period
	pol.MinKeep = 2
	pol.Smoothing = 0.2
	return pol
}

// run executes one engine configuration, panicking on configuration errors
// (experiments are fixed programs; a config error is a bug).
func run(cfg engine.Config) *engine.Result {
	res, err := engine.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// baseCfg builds the common engine configuration for an experiment run.
func baseCfg(bc brussCase, mode engine.Mode, p int, cl *grid.Cluster, seed int64) engine.Config {
	return engine.Config{
		Mode:    mode,
		P:       p,
		Problem: bc.prob,
		Cluster: cl,
		Tol:     bc.tol,
		MaxIter: 200000,
		MaxTime: 100000,
		Seed:    seed,
	}
}

// noisyHomogeneous models the paper's "local homogeneous cluster": identical
// machines, but real ones — commodity boxes whose OS, daemons and PM2
// runtime steal cycles now and then. Each node gets an independent light
// on/off load trace (~`duty` fraction of time at `busyFactor` speed). A
// perfectly noise-free homogeneous cluster keeps AIAC nodes in lockstep
// forever and leaves residual balancing nothing to exploit; the noise is
// what lets unbalanced asynchronous executions drift apart (see
// EXPERIMENTS.md for the measured contrast).
func noisyHomogeneous(p int, seed int64, duty, busyFactor float64) *grid.Cluster {
	cl := grid.Homogeneous(p)
	if duty <= 0 {
		return cl
	}
	rng := rand.New(rand.NewSource(seed))
	meanIdle := 20.0
	meanBusy := meanIdle * duty / (1 - duty)
	for i := range cl.Nodes {
		cl.Nodes[i].Load = grid.MultiUserTrace(rng, 1e6, meanIdle, meanBusy, busyFactor)
	}
	return cl
}

// All runs every experiment at the given scale, in paper order.
func All(scale Scale) []Report {
	reports := FlowFigures(scale)
	reports = append(reports,
		Fig5(scale),
		Table1(scale),
		ModeMatrix(scale),
		LBFrequency(scale),
		LBAccuracy(scale),
		LBEstimator(scale),
		FamineGuard(scale),
		LBFamilies(),
		FullHorizon(scale),
		Mapping(scale),
		Robustness(scale),
		LoadTelemetry(scale),
	)
	return reports
}
