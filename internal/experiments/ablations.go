package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"aiac/internal/engine"
	"aiac/internal/grid"
	"aiac/internal/loadbalance"
	"aiac/internal/stats"
)

// ModeMatrix reproduces the cross-context claims of §6: on a local
// homogeneous cluster, synchronous and asynchronous solvers perform about
// the same; in a grid context AIAC is far better than SISC; and the load
// balanced AIAC obtains "the very best performances" in the grid context.
func ModeMatrix(scale Scale) Report {
	bc := mkBruss(120, 1, 0.02, 1e-6)
	if scale == Full {
		bc = mkBruss(240, 2, 0.01, 1e-6)
	}
	const p = 15
	local := grid.Homogeneous(p)
	remote := grid.HeteroGrid15(grid.HeteroGridConfig{Seed: 42, MultiUser: true})

	type cell struct {
		mode engine.Mode
		lb   bool
		name string
	}
	cells := []cell{
		{engine.SISC, false, "SISC"},
		{engine.SIAC, false, "SIAC"},
		{engine.AIAC, false, "AIAC"},
		{engine.AIAC, true, "AIAC+LB"},
	}
	contexts := []*grid.Cluster{local, remote}
	cfgs := make([]engine.Config, 0, len(cells)*len(contexts))
	for _, c := range cells {
		for _, cl := range contexts {
			cfg := baseCfg(bc, c.mode, p, cl, 9)
			if c.lb {
				cfg.LB = lbPolicy(20)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	results := runAll(cfgs)

	times := map[string][2]float64{}
	tab := stats.NewTable("version", "local cluster (s)", "grid (s)")
	for ci, c := range cells {
		var t [2]float64
		for ctx := range contexts {
			res := results[ci*len(contexts)+ctx]
			if !res.Converged {
				panic("experiments: mode matrix run did not converge: " + c.name)
			}
			t[ctx] = res.Time
		}
		times[c.name] = t
		tab.AddRow(c.name, t[0], t[1])
	}
	localRatio := times["SISC"][0] / times["AIAC"][0]
	gridRatio := times["SISC"][1] / times["AIAC"][1]
	lbBestGrid := times["AIAC+LB"][1] <= times["AIAC"][1] &&
		times["AIAC+LB"][1] <= times["SISC"][1] &&
		times["AIAC+LB"][1] <= times["SIAC"][1]
	pass := gridRatio > localRatio && gridRatio > 1 && lbBestGrid
	return Report{
		ID:    "x1-modes",
		Title: "SISC/SIAC/AIAC across local and grid contexts",
		PaperClaim: "locally sync and async are close; on the grid AIAC is far better than SISC, " +
			"and balanced AIAC is best of all",
		Measured: fmt.Sprintf("SISC/AIAC ratio: local %.2f, grid %.2f; AIAC+LB best on grid: %v",
			localRatio, gridRatio, lbBestGrid),
		Pass: pass,
		Text: tab.String(),
	}
}

// LBFrequency reproduces §6's third condition — the balancing frequency
// "must be neither too high (to avoid overloading the system) nor too low
// (to avoid a too large imbalance)" — by sweeping the period of balancing
// attempts on the heterogeneous grid.
func LBFrequency(scale Scale) Report {
	bc := mkBruss(120, 1, 0.02, 1e-6)
	if scale == Full {
		bc = mkBruss(240, 2, 0.01, 1e-6)
	}
	cl := grid.HeteroGrid15(grid.HeteroGridConfig{Seed: 7, MultiUser: true})
	periods := []int{1, 5, 20, 100, 500}
	cfgs := make([]engine.Config, len(periods))
	for i, per := range periods {
		cfg := baseCfg(bc, engine.AIAC, 15, cl, 13)
		// pathological frequencies may thrash forever; bound the cost of
		// establishing a DNF (converging runs finish well within these)
		cfg.MaxTime = 500
		cfg.MaxIter = 60000
		cfg.LB = lbPolicy(per)
		cfgs[i] = cfg
	}
	results := runAll(cfgs)

	times := make([]float64, len(periods))
	moved := make([]int, len(periods))
	tab := stats.NewTable("period (iters)", "time (s)", "transfers", "comps moved")
	for i, per := range periods {
		res := results[i]
		if !res.Converged {
			times[i] = math.Inf(1) // DNF: over-frequent balancing thrashed
			moved[i] = res.LBCompsMoved
			tab.AddRow(per, "DNF", res.LBTransfers, res.LBCompsMoved)
			continue
		}
		times[i] = res.Time
		moved[i] = res.LBCompsMoved
		tab.AddRow(per, res.Time, res.LBTransfers, res.LBCompsMoved)
	}
	// shape: higher frequency means more migration, and the largest
	// period (almost no balancing) must not be the best choice.
	best := 0
	for i, t := range times {
		if t < times[best] {
			best = i
		}
	}
	monotoneMigration := moved[0] >= moved[len(moved)-1]
	pass := best != len(periods)-1 && monotoneMigration
	return Report{
		ID:         "x2-frequency",
		Title:      "load balancing frequency sweep (heterogeneous grid)",
		PaperClaim: "frequency must be neither too high nor too low; tuning it is future work",
		Measured: fmt.Sprintf("best period %d (%.1f s); period-500 time %.1f s; migration falls with period: %v",
			periods[best], times[best], times[len(times)-1], monotoneMigration),
		Pass: pass,
		Text: tab.String(),
	}
}

// LBAccuracy reproduces §6's fourth condition: on a loaded/slow network a
// coarse balancing (less data migration) is preferable, while an accurate
// one speeds convergence when the network allows it. We sweep the transfer
// aggressiveness λ on a fast and on a slow network.
func LBAccuracy(scale Scale) Report {
	bc := mkBruss(96, 1, 0.02, 1e-6)
	if scale == Full {
		bc = mkBruss(192, 2, 0.01, 1e-6)
	}
	lambdas := []float64{0.1, 0.25, 0.5, 1.0}
	nets := []struct {
		name string
		link grid.Link
	}{
		{"fast net", grid.Link{Latency: 1e-4, Bandwidth: 1e7}},
		{"slow net", grid.Link{Latency: 3e-2, Bandwidth: 1e5}},
	}
	cfgs := make([]engine.Config, 0, len(lambdas)*len(nets))
	for _, l := range lambdas {
		for _, net := range nets {
			cl := grid.Heterogeneous(8, 0.3, 21)
			cl.Intra = net.link
			cfg := baseCfg(bc, engine.AIAC, 8, cl, 17)
			// aggressive λ on a slow net may never settle; bound the DNF cost
			cfg.MaxTime = 500
			cfg.MaxIter = 60000
			pol := lbPolicy(20)
			pol.Lambda = l
			cfg.LB = pol
			cfgs = append(cfgs, cfg)
		}
	}
	results := runAll(cfgs)

	tab := stats.NewTable("lambda", "time fast net (s)", "time slow net (s)")
	times := [2][]float64{}
	for li, l := range lambdas {
		row := []any{l}
		for ni := range nets {
			res := results[li*len(nets)+ni]
			if !res.Converged {
				// a DNF is itself the finding: too much migration
				// overloads the network, exactly the §6 warning.
				times[ni] = append(times[ni], math.Inf(1))
				row = append(row, "DNF")
				continue
			}
			times[ni] = append(times[ni], res.Time)
			row = append(row, res.Time)
		}
		tab.AddRow(row...)
	}
	argmin := func(ts []float64) int {
		b := 0
		for i, t := range ts {
			if t < ts[b] {
				b = i
			}
		}
		return b
	}
	bestFast, bestSlow := argmin(times[0]), argmin(times[1])
	// shape: on the slow network the most aggressive balancing must not be
	// the optimum — coarse balancing (smaller λ) is preferable there.
	last := len(lambdas) - 1
	pass := bestSlow != last && lambdas[bestSlow] <= 0.5
	penalty := "DNF"
	if !math.IsInf(times[1][last], 1) {
		penalty = fmt.Sprintf("%.1fx its best", times[1][last]/times[1][bestSlow])
	}
	return Report{
		ID:         "x3-accuracy",
		Title:      "balancing accuracy (λ) vs network load",
		PaperClaim: "on a loaded/slow network prefer coarse balancing; accurate balancing speeds convergence otherwise",
		Measured: fmt.Sprintf("best λ: fast net %.2f, slow net %.2f (λ=1 on slow net: %s)",
			lambdas[bestFast], lambdas[bestSlow], penalty),
		Pass: pass,
		Text: tab.String(),
	}
}

// LBEstimator compares the paper's residual load estimator (§5.2) against
// the "obvious" per-iteration-time estimator and a plain component count.
func LBEstimator(scale Scale) Report {
	bc := mkBruss(120, 1, 0.02, 1e-6)
	if scale == Full {
		bc = mkBruss(240, 2, 0.01, 1e-6)
	}
	cl := grid.HeteroGrid15(grid.HeteroGridConfig{Seed: 31, MultiUser: true})
	ests := []loadbalance.Estimator{
		loadbalance.EstimatorResidual,
		loadbalance.EstimatorIterTime,
		loadbalance.EstimatorCount,
	}
	cfgs := make([]engine.Config, 0, len(ests)+2)
	for _, est := range ests {
		cfg := baseCfg(bc, engine.AIAC, 15, cl, 23)
		pol := lbPolicy(20)
		pol.Estimator = est
		cfg.LB = pol
		cfgs = append(cfgs, cfg)
	}
	// the paper-literal behavior: raw residual, no smoothing
	rawCfg := baseCfg(bc, engine.AIAC, 15, cl, 23)
	rawPol := lbPolicy(20)
	rawPol.Smoothing = 1
	rawCfg.LB = rawPol
	cfgs = append(cfgs, rawCfg)
	cfgs = append(cfgs, baseCfg(bc, engine.AIAC, 15, cl, 23)) // no balancing
	results := runAll(cfgs)

	tab := stats.NewTable("estimator", "time (s)", "transfers", "comps moved")
	times := make([]float64, len(ests))
	for i, est := range ests {
		res := results[i]
		if !res.Converged {
			panic("experiments: estimator run did not converge")
		}
		times[i] = res.Time
		tab.AddRow(est.String(), res.Time, res.LBTransfers, res.LBCompsMoved)
	}
	raw, base := results[len(ests)], results[len(ests)+1]
	tab.AddRow("residual (raw, paper-literal)", raw.Time, raw.LBTransfers, raw.LBCompsMoved)
	tab.AddRow("(no balancing)", base.Time, 0, 0)
	// shape: the paper's directly testable claim is that residual-driven
	// balancing helps; whether another estimator is even better is this
	// reproduction's addendum (reported in the table and EXPERIMENTS.md).
	pass := times[0] < 0.95*base.Time
	return Report{
		ID:         "x4-estimator",
		Title:      "residual vs iteration-time vs count load estimators",
		PaperClaim: "the residual is very well adapted as a load estimator for this computation",
		Measured: fmt.Sprintf("residual %.1f s (raw %.1f s), itertime %.1f s, count %.1f s, none %.1f s",
			times[0], raw.Time, times[1], times[2], base.Time),
		Pass: pass,
		Text: tab.String(),
	}
}

// FamineGuard reproduces Algorithm 5's ThresholdData test: without a
// minimum-keep guard, slow processors can be drained of data ("the famine
// phenomenon"); with it, every node keeps a floor of components.
func FamineGuard(scale Scale) Report {
	bc := mkBruss(60, 1, 0.02, 1e-6)
	if scale == Full {
		bc = mkBruss(96, 2, 0.01, 1e-6)
	}
	cl := grid.Heterogeneous(6, 0.15, 19)
	guards := []int{1, 4, 8}
	cfgs := make([]engine.Config, len(guards))
	for i, g := range guards {
		cfg := baseCfg(bc, engine.AIAC, 6, cl, 29)
		pol := lbPolicy(10)
		pol.MinKeep = g
		cfg.LB = pol
		cfgs[i] = cfg
	}
	results := runAll(cfgs)

	tab := stats.NewTable("MinKeep", "time (s)", "min final count", "max final count")
	minCounts := make([]int, len(guards))
	for i, g := range guards {
		res := results[i]
		if !res.Converged {
			panic("experiments: famine run did not converge")
		}
		lo, hi := res.FinalCount[0], res.FinalCount[0]
		for _, c := range res.FinalCount {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		minCounts[i] = lo
		tab.AddRow(g, res.Time, lo, hi)
	}
	pass := true
	for i, g := range guards {
		if minCounts[i] < g {
			pass = false
		}
	}
	return Report{
		ID:         "x5-famine",
		Title:      "famine guard (ThresholdData) ablation",
		PaperClaim: "a minimum-data threshold avoids the famine phenomenon on the slowest processors",
		Measured: fmt.Sprintf("min final counts %v for guards %v (%s)",
			minCounts, guards, holds(pass, "never below the guard", "below the guard")),
		Pass: pass,
		Text: tab.String(),
	}
}

// LBFamilies compares the §3 families of iterative balancing algorithms on
// abstract load graphs: Cybenko diffusion and dimension exchange (both
// synchronous — the reason the paper rejects them for AIAC) against the
// Bertsekas-Tsitsiklis lightest-neighbor scheme the paper adopts.
func LBFamilies() Report {
	rng := rand.New(rand.NewSource(99))
	const d = 4 // 16 nodes
	n := 1 << d
	load := make([]float64, n)
	for i := range load {
		load[i] = 1 + rng.Float64()*99
	}
	mean := loadbalance.Total(load) / float64(n)

	chain := loadbalance.Chain(n)
	cube := loadbalance.Hypercube(d)

	diffOut, diffSweeps := loadbalance.Diffusion(cube, load, 1.0/float64(cube.MaxDegree()+1), 0.01*mean, 10000)
	deOut := loadbalance.DimensionExchange(d, load)
	lnOut := loadbalance.LightestNeighbor(chain, load, 1.2, 1.0, 200, 1)
	allOut := loadbalance.AllLighterNeighbors(chain, load, 1.2, 1.0, 200, 1)

	tab := stats.NewTable("algorithm", "graph", "sync?", "final imbalance", "rounds")
	tab.AddRow("diffusion (Cybenko)", "hypercube", "yes", loadbalance.Imbalance(diffOut), diffSweeps)
	tab.AddRow("dimension exchange", "hypercube", "yes", loadbalance.Imbalance(deOut), d)
	tab.AddRow("BT lightest neighbor", "chain", "no", loadbalance.Imbalance(lnOut), 200)
	tab.AddRow("BT all lighter neighbors", "chain", "no", loadbalance.Imbalance(allOut), 200)
	pass := loadbalance.Imbalance(deOut) < 1e-9 &&
		loadbalance.Imbalance(diffOut) <= 0.01*mean+1e-9 &&
		loadbalance.Imbalance(lnOut) < loadbalance.Imbalance(load)
	return Report{
		ID:         "x6-families",
		Title:      "iterative load-balancing algorithm families (§3)",
		PaperClaim: "diffusion/dimension-exchange balance globally but are synchronous; BT's lightest-neighbor variant balances with only local async exchanges",
		Measured: fmt.Sprintf("imbalances: diffusion %.3g, dim-exchange %.3g, BT %.3g (initial %.3g)",
			loadbalance.Imbalance(diffOut), loadbalance.Imbalance(deOut),
			loadbalance.Imbalance(lnOut), loadbalance.Imbalance(load)),
		Pass: pass,
		Text: tab.String(),
	}
}
