// Package grid models the execution platform of the paper's experiments: a
// set of machines with (possibly heterogeneous) CPU speeds, grouped into
// sites, connected by links with latency and bandwidth, and optionally
// subject to time-varying multi-user background load.
//
// The model plugs into the runtimes through two pure functions:
// ComputeTime (work units -> duration, integrating the load trace) and
// Delay (message size -> transfer duration). Presets reproduce the two
// platforms of the paper: a local homogeneous cluster and the 15-machine,
// 3-site heterogeneous grid of Table 1.
package grid

import (
	"fmt"
	"math/rand"
)

// Link describes one communication link.
type Link struct {
	Latency   float64 // seconds added to every message
	Bandwidth float64 // bytes per second; <= 0 means infinite
}

// Transfer returns the modeled duration of moving `bytes` across the link.
func (l Link) Transfer(bytes int) float64 {
	d := l.Latency
	if l.Bandwidth > 0 {
		d += float64(bytes) / l.Bandwidth
	}
	return d
}

// Node is one machine of the platform.
type Node struct {
	Name  string
	Site  int
	Speed float64    // work units per second at factor 1.0
	Load  *LoadTrace // nil means constant full speed
}

// Cluster is a complete platform description.
type Cluster struct {
	Nodes []Node
	Sites []string
	// Intra is the link used between two nodes of the same site.
	Intra Link
	// Inter maps an unordered site pair {a,b} (a < b) to its link.
	// Missing pairs fall back to DefaultInter.
	Inter map[[2]int]Link
	// DefaultInter is used for site pairs absent from Inter.
	DefaultInter Link
	// LocalLatency is the delay for a node messaging itself (co-located
	// control processes); it defaults to 1 microsecond.
	LocalLatency float64
}

// P returns the number of nodes.
func (c *Cluster) P() int { return len(c.Nodes) }

// Link returns the link used between two nodes.
func (c *Cluster) Link(from, to int) Link {
	if from == to {
		lat := c.LocalLatency
		if lat <= 0 {
			lat = 1e-6
		}
		return Link{Latency: lat}
	}
	a, b := c.Nodes[from].Site, c.Nodes[to].Site
	if a == b {
		return c.Intra
	}
	if a > b {
		a, b = b, a
	}
	if l, ok := c.Inter[[2]int{a, b}]; ok {
		return l
	}
	return c.DefaultInter
}

// Delay returns the transfer duration for a message between two nodes,
// suitable for runenv.Config.Delay.
func (c *Cluster) Delay(from, to, bytes int) float64 {
	return c.Link(from, to).Transfer(bytes)
}

// ComputeTime returns the duration needed by `node`, starting at time
// `start`, to execute `units` of work, integrating the node's background
// load trace. Suitable for runenv.Config.ComputeTime.
func (c *Cluster) ComputeTime(node int, start, units float64) float64 {
	if units <= 0 {
		return 0
	}
	n := c.Nodes[node]
	if n.Speed <= 0 {
		panic(fmt.Sprintf("grid: node %d has non-positive speed %g", node, n.Speed))
	}
	if n.Load == nil {
		return units / n.Speed
	}
	return n.Load.timeFor(start, units/n.Speed)
}

// EffectiveSpeed returns the instantaneous speed of a node at time t in
// work units per second.
func (c *Cluster) EffectiveSpeed(node int, t float64) float64 {
	n := c.Nodes[node]
	f := 1.0
	if n.Load != nil {
		f = n.Load.Factor(t)
	}
	return n.Speed * f
}

// LoadTrace is a piecewise-constant multiplicative speed factor over time.
// Breaks[i] is the start of segment i with factor Factors[i]; before
// Breaks[0] and after the last break the neighboring factor applies.
// Factors must be positive. The zero value means constant factor 1.
type LoadTrace struct {
	Breaks  []float64
	Factors []float64
}

// Factor returns the speed factor at time t.
func (lt *LoadTrace) Factor(t float64) float64 {
	if lt == nil || len(lt.Factors) == 0 {
		return 1
	}
	return lt.Factors[max(lt.breaksUpTo(t)-1, 0)]
}

// breaksUpTo returns the number of breaks <= t: segment breaksUpTo(t)-1
// (clamped to 0) holds t, and Breaks[breaksUpTo(t)], if there is one, is the
// first break strictly after it.
func (lt *LoadTrace) breaksUpTo(t float64) int {
	// traces have a few hundred segments and callers pass monotone times;
	// binary search keeps the worst case tame.
	lo, hi := 0, len(lt.Breaks)
	for lo < hi {
		mid := (lo + hi) / 2
		if lt.Breaks[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// timeFor returns the duration, starting at `start`, needed to accumulate
// `base` seconds of factor-1.0 compute under the trace.
func (lt *LoadTrace) timeFor(start, base float64) float64 {
	if lt == nil || len(lt.Factors) == 0 {
		return base
	}
	t := start
	remaining := base
	for {
		// one search per segment serves both the factor and the segment's end
		lo := lt.breaksUpTo(t)
		f := lt.Factors[max(lo-1, 0)]
		if f <= 0 {
			panic("grid: load trace factor must be positive")
		}
		if lo >= len(lt.Breaks) {
			return t + remaining/f - start
		}
		next := lt.Breaks[lo]
		span := next - t
		capWork := span * f
		if capWork >= remaining {
			return t + remaining/f - start
		}
		remaining -= capWork
		t = next
	}
}

// Validate checks trace invariants: strictly increasing breaks, positive
// factors, matching lengths.
func (lt *LoadTrace) Validate() error {
	if lt == nil {
		return nil
	}
	if len(lt.Breaks) != len(lt.Factors) {
		return fmt.Errorf("grid: trace has %d breaks but %d factors", len(lt.Breaks), len(lt.Factors))
	}
	for i := 1; i < len(lt.Breaks); i++ {
		if lt.Breaks[i] <= lt.Breaks[i-1] {
			return fmt.Errorf("grid: trace breaks not increasing at %d", i)
		}
	}
	for i, f := range lt.Factors {
		if f <= 0 {
			return fmt.Errorf("grid: trace factor %d is %g, must be > 0", i, f)
		}
	}
	return nil
}

// MultiUserTrace builds an on/off background-load trace: the node alternates
// between full speed (idle machine) and busyFactor (another user computing),
// with exponentially distributed phase durations, out to `horizon` seconds
// (the last factor holds afterwards).
func MultiUserTrace(rng *rand.Rand, horizon, meanIdle, meanBusy, busyFactor float64) *LoadTrace {
	if busyFactor <= 0 || busyFactor > 1 {
		panic("grid: busyFactor must be in (0, 1]")
	}
	lt := &LoadTrace{}
	t := 0.0
	busy := rng.Intn(2) == 0
	for t < horizon {
		f := 1.0
		mean := meanIdle
		if busy {
			f = busyFactor
			mean = meanBusy
		}
		lt.Breaks = append(lt.Breaks, t)
		lt.Factors = append(lt.Factors, f)
		t += rng.ExpFloat64() * mean
		busy = !busy
	}
	return lt
}
