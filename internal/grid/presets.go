package grid

import (
	"fmt"
	"math/rand"
	"sort"
)

// Speed scale: 1.0 "speed factor" corresponds to BaseSpeed work units per
// second, where one work unit is one scalar Newton iteration of the solver.
// Only ratios matter for the experiment shapes; the absolute value merely
// places virtual times on a human scale.
const BaseSpeed = 1e6

// Homogeneous builds the paper's first platform: a local cluster of p
// identical machines on a fast LAN (Figure 5).
func Homogeneous(p int) *Cluster {
	if p <= 0 {
		panic("grid: cluster needs at least one node")
	}
	c := &Cluster{
		Sites: []string{"local"},
		Intra: Link{Latency: 1e-4, Bandwidth: 1e7}, // ~fast ethernet
	}
	for i := 0; i < p; i++ {
		c.Nodes = append(c.Nodes, Node{
			Name:  fmt.Sprintf("local%02d", i),
			Site:  0,
			Speed: BaseSpeed,
		})
	}
	return c
}

// HeteroGridConfig parameterizes the heterogeneous multi-site platform.
type HeteroGridConfig struct {
	Seed int64
	// MultiUser enables background load traces (the paper's machines were
	// "subject to a multi-users utilization").
	MultiUser bool
}

// loadHorizon is how far in time HeteroGrid15's load traces are generated.
const loadHorizon = 3600

// HeteroGrid15 builds the paper's second platform (Table 1): fifteen
// machines spread over three sites in France — Belfort, Montbeliard and
// Grenoble — ranging from a PII 400 MHz (speed factor 0.28) to an Athlon
// 1.4 GHz (factor 1.0), with slow and fluctuating inter-site links.
//
// The node order is deliberately irregular with respect to sites, so the
// logical linear organization used by the solver makes many chain neighbors
// cross site boundaries — the paper chose an irregular organization "to get
// a grid computing context not favorable to load balancing".
func HeteroGrid15(cfg HeteroGridConfig) *Cluster {
	rng := rand.New(rand.NewSource(cfg.Seed))
	const (
		belfort = iota
		montbeliard
		grenoble
	)
	// Speed factors modeled on the machine park: PII 400 ~ 0.28,
	// PIII 700 ~ 0.5, PIII 1000 ~ 0.71, Athlon 1.2 ~ 0.86, Athlon 1.4 = 1.0.
	type m struct {
		site  int
		speed float64
	}
	// Irregular chain: consecutive entries alternate sites.
	park := []m{
		{belfort, 1.00}, {grenoble, 0.28}, {montbeliard, 0.71}, {belfort, 0.50},
		{grenoble, 0.86}, {montbeliard, 0.28}, {belfort, 0.71}, {grenoble, 0.50},
		{montbeliard, 1.00}, {belfort, 0.28}, {grenoble, 0.71}, {montbeliard, 0.50},
		{belfort, 0.86}, {grenoble, 0.36}, {montbeliard, 0.64},
	}
	c := &Cluster{
		Sites: []string{"belfort", "montbeliard", "grenoble"},
		Intra: Link{Latency: 1e-4, Bandwidth: 1e7},
		Inter: map[[2]int]Link{
			// Belfort and Montbeliard are ~15 km apart: decent link.
			{belfort, montbeliard}: {Latency: 5e-3, Bandwidth: 2e6},
			// Grenoble is far: slow, WAN-grade link.
			{belfort, grenoble}:     {Latency: 15e-3, Bandwidth: 5e5},
			{montbeliard, grenoble}: {Latency: 18e-3, Bandwidth: 5e5},
		},
		DefaultInter: Link{Latency: 20e-3, Bandwidth: 5e5},
	}
	for i, mm := range park {
		n := Node{
			Name:  fmt.Sprintf("%s%02d", c.Sites[mm.site], i),
			Site:  mm.site,
			Speed: mm.speed * BaseSpeed,
		}
		if cfg.MultiUser {
			// Mean 40 s of other-user activity at 35% effective speed,
			// alternating with mean 60 s of idle machine.
			n.Load = MultiUserTrace(rng, loadHorizon, 60, 40, 0.35)
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// Heterogeneous builds a generic p-node single-site cluster with speed
// factors spread uniformly in [minFactor, 1], deterministic in seed. Useful
// for sweeps beyond the two paper presets.
func Heterogeneous(p int, minFactor float64, seed int64) *Cluster {
	if p <= 0 {
		panic("grid: cluster needs at least one node")
	}
	if minFactor <= 0 || minFactor > 1 {
		panic("grid: minFactor must be in (0, 1]")
	}
	rng := rand.New(rand.NewSource(seed))
	c := &Cluster{
		Sites: []string{"local"},
		Intra: Link{Latency: 1e-4, Bandwidth: 1e7},
	}
	for i := 0; i < p; i++ {
		f := minFactor + (1-minFactor)*rng.Float64()
		c.Nodes = append(c.Nodes, Node{
			Name:  fmt.Sprintf("hetero%02d", i),
			Site:  0,
			Speed: f * BaseSpeed,
		})
	}
	return c
}

// SiteOrderedMapping returns a chain-rank → node mapping that groups the
// cluster's nodes by site (and by descending speed within a site), so that
// consecutive chain neighbors share a site wherever possible — the
// "favorable" logical organization the paper's irregular grid deliberately
// avoided.
func SiteOrderedMapping(c *Cluster) []int {
	idx := make([]int, c.P())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		na, nb := c.Nodes[idx[a]], c.Nodes[idx[b]]
		if na.Site != nb.Site {
			return na.Site < nb.Site
		}
		return na.Speed > nb.Speed
	})
	return idx
}
