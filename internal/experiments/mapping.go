package experiments

import (
	"fmt"

	"aiac/internal/engine"
	"aiac/internal/grid"
	"aiac/internal/stats"
)

// Mapping (X8) probes the paper's remark that "the logical organization of
// the system has been chosen irregular in order to get a grid computing
// context not favorable to load balancing": it runs the balanced and
// non-balanced AIAC solvers on the Table-1 platform under both the paper's
// irregular chain (neighbors constantly crossing sites) and a site-ordered
// chain (neighbors co-located wherever possible). Shapes: the site-ordered
// organization is faster in absolute terms (fewer WAN halo hops on the
// critical path), and balancing helps under both organizations.
func Mapping(scale Scale) Report {
	bc := mkBruss(240, 0.5, 0.005, 1e-6)
	if scale == Full {
		bc = mkBruss(240, 2, 0.01, 1e-6)
	}
	cl := grid.HeteroGrid15(grid.HeteroGridConfig{Seed: 11, MultiUser: true})
	ordered := grid.SiteOrderedMapping(cl)

	type row struct {
		name    string
		mapping []int
	}
	rows := []row{
		{"irregular (paper)", nil},
		{"site-ordered", ordered},
	}
	cfgs := make([]engine.Config, 0, 2*len(rows))
	for _, r := range rows {
		cfgNo := baseCfg(bc, engine.AIAC, 15, cl, 37)
		cfgNo.Mapping = r.mapping
		cfgLB := cfgNo
		cfgLB.LB = lbPolicy(20)
		cfgs = append(cfgs, cfgNo, cfgLB)
	}
	results := runAll(cfgs)

	tab := stats.NewTable("organization", "time w/o LB (s)", "time with LB (s)", "LB ratio")
	times := map[string][2]float64{}
	for i, r := range rows {
		resNo, resLB := results[2*i], results[2*i+1]
		if !resNo.Converged || !resLB.Converged {
			panic("experiments: mapping run did not converge")
		}
		times[r.name] = [2]float64{resNo.Time, resLB.Time}
		tab.AddRow(r.name, resNo.Time, resLB.Time, resNo.Time/resLB.Time)
	}
	irr, ord := times["irregular (paper)"], times["site-ordered"]
	orderedFaster := ord[0] < irr[0]
	lbHelpsBoth := irr[1] < irr[0] && ord[1] < ord[0]
	return Report{
		ID:    "x8-mapping",
		Title: "logical organization: irregular (paper) vs site-ordered chain",
		PaperClaim: "the irregular organization was chosen to make the grid context " +
			"unfavorable; balancing still brought an impressive enhancement",
		Measured: fmt.Sprintf("site-ordered is %s unbalanced; LB %s (irregular %.2fx, ordered %.2fx)",
			holds(orderedFaster, fmt.Sprintf("%.2fx faster", irr[0]/ord[0]), fmt.Sprintf("not faster (%.2fx)", irr[0]/ord[0])),
			holds(lbHelpsBoth, "helps under both", "does not help under both"), irr[0]/irr[1], ord[0]/ord[1]),
		Pass: orderedFaster && lbHelpsBoth,
		Text: tab.String(),
	}
}
