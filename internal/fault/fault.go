// Package fault is a seeded, fully deterministic fault-injection layer for
// the simulated grid. A Plan describes per-link message faults (drop,
// duplication, reordering, delay spikes) and per-node compute faults
// (transient stalls and slowdowns); compiling it yields an Injector whose
// hooks plug into runenv.Config. Every decision is a pure hash of
// (seed, link-or-node, per-target sequence number), so a failing execution
// is replayable from the seed alone — no shared RNG state, no dependence on
// goroutine scheduling under the real-time runtime.
//
// Delay-shaped faults are expressed as multiples of the message's own
// modeled link delay (and compute faults as multiples of the compute
// period), which keeps a Plan meaningful across problems and platforms
// whose virtual-time scales differ by orders of magnitude.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"aiac/internal/runenv"
)

// Rates are per-message fault probabilities in [0, 1].
type Rates struct {
	// Drop loses the message entirely.
	Drop float64
	// Dup delivers a second, independently delayed copy outside FIFO order.
	Dup float64
	// Reorder releases the message from the per-pair FIFO guarantee and
	// jitters its delay, so it can overtake or be overtaken.
	Reorder float64
	// Spike multiplies the message's delay by SpikeFactor (a congestion
	// burst on the link).
	Spike float64
}

// Plan describes a reproducible fault schedule for one world. The zero
// value (and any plan whose rates are all zero) is an exact no-op: wrapped
// hooks return bit-identical values and the runtimes behave as if no plan
// were installed.
type Plan struct {
	// Seed drives every fault decision. The same Plan run on the same
	// deterministic world reproduces the same faults, event for event.
	Seed int64

	// Msg are the per-message fault rates.
	Msg Rates
	// SpikeFactor scales a spiked message's delay (default 10).
	SpikeFactor float64
	// JitterFactor bounds the extra delay of reordered and duplicated
	// copies: each gets uniform(0, JitterFactor) × the modeled delay on
	// top of it (default 2).
	JitterFactor float64

	// Stall is the per-compute-period probability of a transient stall:
	// the period is stretched by StallFactor (default 25×), modeling a
	// node that freezes — paging, preemption, a rebooting daemon.
	Stall float64
	// StallFactor is the stall stretch multiplier (default 25).
	StallFactor float64
	// Slow is the per-compute-period probability of a transient slowdown
	// by SlowFactor (default 4×) — a competing job stealing cycles.
	Slow float64
	// SlowFactor is the slowdown multiplier (default 4).
	SlowFactor float64

	// Kinds restricts message faults to the listed message kinds
	// (nil = every kind the caller exposes to the plan).
	Kinds []int
	// Links restricts message faults to the listed directed links, each
	// entry a [from, to] pair of process ranks (nil = all links).
	Links [][2]int
	// Nodes restricts compute faults to the listed process ranks
	// (nil = all nodes).
	Nodes []int
}

// BadTargetError reports a Plan that names a node or link outside the world
// it was compiled for.
type BadTargetError struct {
	// Procs is the number of processes in the world.
	Procs int
	// Node is the offending node rank, or -1 when a link is at fault.
	Node int
	// Link is the offending [from, to] pair when Node == -1.
	Link [2]int
}

func (e *BadTargetError) Error() string {
	if e.Node >= 0 || e.Procs == 0 {
		return fmt.Sprintf("fault: plan names node %d, world has processes [0, %d)", e.Node, e.Procs)
	}
	return fmt.Sprintf("fault: plan names link %d->%d, world has processes [0, %d)", e.Link[0], e.Link[1], e.Procs)
}

// Zero reports whether the plan injects nothing: all rates are zero.
func (p *Plan) Zero() bool {
	return p.Msg == Rates{} && p.Stall == 0 && p.Slow == 0
}

// Validate checks rates and factors, and that every named node and link
// exists in a world of the given process count. Out-of-range targets are
// reported as *BadTargetError.
func (p *Plan) Validate(procs int) error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"Msg.Drop", p.Msg.Drop}, {"Msg.Dup", p.Msg.Dup},
		{"Msg.Reorder", p.Msg.Reorder}, {"Msg.Spike", p.Msg.Spike},
		{"Stall", p.Stall}, {"Slow", p.Slow},
	} {
		if r.v < 0 || r.v > 1 || r.v != r.v {
			return fmt.Errorf("fault: rate %s = %g, need [0, 1]", r.name, r.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SpikeFactor", p.SpikeFactor}, {"JitterFactor", p.JitterFactor},
		{"StallFactor", p.StallFactor}, {"SlowFactor", p.SlowFactor},
	} {
		if f.v < 0 || f.v != f.v {
			return fmt.Errorf("fault: factor %s = %g, need >= 0", f.name, f.v)
		}
	}
	for _, n := range p.Nodes {
		if n < 0 || n >= procs {
			return &BadTargetError{Procs: procs, Node: n, Link: [2]int{-1, -1}}
		}
	}
	for _, l := range p.Links {
		if l[0] < 0 || l[0] >= procs || l[1] < 0 || l[1] >= procs {
			return &BadTargetError{Procs: procs, Node: -1, Link: l}
		}
	}
	return nil
}

// Injector is a compiled Plan: MsgFault implements runenv.Config.FaultHook
// and WrapCompute perturbs a ComputeTime hook. Safe for concurrent use.
type Injector struct {
	plan  Plan
	procs int
	kinds map[int]bool    // nil = all
	links map[[2]int]bool // nil = all
	nodes map[int]bool    // nil = all

	msgSeq  []atomic.Uint64 // per directed link, indexed from*procs+to
	nodeSeq []atomic.Uint64 // per node

	stats Stats
}

// Stats counts the faults an Injector actually injected.
type Stats struct {
	Dropped, Duplicated, Reordered, Spiked uint64
	Stalled, Slowed                        uint64
}

// Add folds o into s, as when several injectors served one run.
func (s *Stats) Add(o Stats) {
	s.Dropped += o.Dropped
	s.Duplicated += o.Duplicated
	s.Reordered += o.Reordered
	s.Spiked += o.Spiked
	s.Stalled += o.Stalled
	s.Slowed += o.Slowed
}

// Compile validates the plan against a world of the given process count,
// fills in default factors, and returns a ready Injector.
func (p Plan) Compile(procs int) (*Injector, error) {
	if err := p.Validate(procs); err != nil {
		return nil, err
	}
	if p.SpikeFactor == 0 {
		p.SpikeFactor = 10
	}
	if p.JitterFactor == 0 {
		p.JitterFactor = 2
	}
	if p.StallFactor == 0 {
		p.StallFactor = 25
	}
	if p.SlowFactor == 0 {
		p.SlowFactor = 4
	}
	inj := &Injector{
		plan:    p,
		procs:   procs,
		msgSeq:  make([]atomic.Uint64, procs*procs),
		nodeSeq: make([]atomic.Uint64, procs),
	}
	if p.Kinds != nil {
		inj.kinds = make(map[int]bool, len(p.Kinds))
		for _, k := range p.Kinds {
			inj.kinds[k] = true
		}
	}
	if p.Links != nil {
		inj.links = make(map[[2]int]bool, len(p.Links))
		for _, l := range p.Links {
			inj.links[l] = true
		}
	}
	if p.Nodes != nil {
		inj.nodes = make(map[int]bool, len(p.Nodes))
		for _, n := range p.Nodes {
			inj.nodes[n] = true
		}
	}
	return inj, nil
}

// MustCompile is Compile for plans already validated; it panics on error.
func (p Plan) MustCompile(procs int) *Injector {
	inj, err := p.Compile(procs)
	if err != nil {
		panic(err)
	}
	return inj
}

// Stats returns a snapshot of the injected-fault counters.
func (inj *Injector) Stats() Stats {
	return Stats{
		Dropped:    atomic.LoadUint64(&inj.stats.Dropped),
		Duplicated: atomic.LoadUint64(&inj.stats.Duplicated),
		Reordered:  atomic.LoadUint64(&inj.stats.Reordered),
		Spiked:     atomic.LoadUint64(&inj.stats.Spiked),
		Stalled:    atomic.LoadUint64(&inj.stats.Stalled),
		Slowed:     atomic.LoadUint64(&inj.stats.Slowed),
	}
}

// MsgFault implements runenv.Config.FaultHook: the fate of the n-th message
// on a link is a pure function of (seed, link, n).
func (inj *Injector) MsgFault(from, to, kind, bytes int, now, delay float64) runenv.MsgFault {
	if inj.kinds != nil && !inj.kinds[kind] {
		return runenv.MsgFault{}
	}
	if inj.links != nil && !inj.links[[2]int{from, to}] {
		return runenv.MsgFault{}
	}
	n := inj.msgSeq[from*inj.procs+to].Add(1)
	d := decider{state: mix(uint64(inj.plan.Seed), linkKey(from, to), n)}
	var f runenv.MsgFault
	if d.roll() < inj.plan.Msg.Drop {
		atomic.AddUint64(&inj.stats.Dropped, 1)
		f.Drop = true
		return f
	}
	if d.roll() < inj.plan.Msg.Dup {
		atomic.AddUint64(&inj.stats.Duplicated, 1)
		f.DupDelays = []float64{d.roll() * inj.plan.JitterFactor * delay}
	}
	if d.roll() < inj.plan.Msg.Reorder {
		atomic.AddUint64(&inj.stats.Reordered, 1)
		f.Reorder = true
		f.ExtraDelay += d.roll() * inj.plan.JitterFactor * delay
	}
	if d.roll() < inj.plan.Msg.Spike {
		atomic.AddUint64(&inj.stats.Spiked, 1)
		f.ExtraDelay += inj.plan.SpikeFactor * delay
	}
	return f
}

// WrapCompute returns a ComputeTime hook that applies the plan's transient
// node stalls and slowdowns on top of the base hook.
func (inj *Injector) WrapCompute(base func(node int, start, units float64) float64) func(node int, start, units float64) float64 {
	if inj.plan.Stall == 0 && inj.plan.Slow == 0 {
		return base
	}
	return func(node int, start, units float64) float64 {
		d := base(node, start, units)
		if inj.nodes != nil && !inj.nodes[node] {
			return d
		}
		n := inj.nodeSeq[node].Add(1)
		dec := decider{state: mix(uint64(inj.plan.Seed)^0x9e3779b97f4a7c15, uint64(node), n)}
		if dec.roll() < inj.plan.Slow {
			atomic.AddUint64(&inj.stats.Slowed, 1)
			d *= inj.plan.SlowFactor
		}
		if dec.roll() < inj.plan.Stall {
			atomic.AddUint64(&inj.stats.Stalled, 1)
			d *= inj.plan.StallFactor
		}
		return d
	}
}

// decider draws a fixed sequence of uniforms in [0, 1) from a splitmix64
// stream. Every decision site consumes exactly one roll regardless of
// outcome, so the stream stays aligned across fate combinations.
type decider struct{ state uint64 }

func (d *decider) roll() float64 {
	d.state += 0x9e3779b97f4a7c15
	z := d.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

func linkKey(from, to int) uint64 {
	return uint64(from)<<32 | uint64(uint32(to))
}

// mix folds the seed, a target key and a sequence number into one 64-bit
// stream origin (splitmix64 finalizer over their combination).
func mix(seed, key, n uint64) uint64 {
	z := seed ^ key*0xff51afd7ed558ccd ^ n*0xc4ceb9fe1a85ec53
	z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	return z ^ (z >> 33)
}

// ParseSpec parses a command-line fault specification of the form
// "drop=0.05,dup=0.02,reorder=0.05,spike=0.1,stall=0.001,slow=0.01" with
// optional factor keys (spike-factor, jitter-factor, stall-factor,
// slow-factor) and an optional scope key whose value is returned verbatim
// for the caller to resolve into Kinds (e.g. "lb", "boundary", "all").
// An empty spec yields the zero plan.
func ParseSpec(spec string) (Plan, string, error) {
	var p Plan
	scope := ""
	if strings.TrimSpace(spec) == "" {
		return p, scope, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return p, "", fmt.Errorf("fault: bad spec entry %q (want key=value)", part)
		}
		key, val := strings.ToLower(strings.TrimSpace(kv[0])), strings.TrimSpace(kv[1])
		if key == "scope" {
			scope = strings.ToLower(val)
			continue
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return p, "", fmt.Errorf("fault: bad value in %q: %v", part, err)
		}
		switch key {
		case "drop":
			p.Msg.Drop = x
		case "dup":
			p.Msg.Dup = x
		case "reorder":
			p.Msg.Reorder = x
		case "spike", "delay":
			p.Msg.Spike = x
		case "spike-factor":
			p.SpikeFactor = x
		case "jitter-factor":
			p.JitterFactor = x
		case "stall":
			p.Stall = x
		case "stall-factor":
			p.StallFactor = x
		case "slow":
			p.Slow = x
		case "slow-factor":
			p.SlowFactor = x
		default:
			return p, "", fmt.Errorf("fault: unknown spec key %q", key)
		}
	}
	return p, scope, nil
}

// String renders the plan compactly for logs and experiment headers.
func (p Plan) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("drop", p.Msg.Drop)
	add("dup", p.Msg.Dup)
	add("reorder", p.Msg.Reorder)
	add("spike", p.Msg.Spike)
	add("stall", p.Stall)
	add("slow", p.Slow)
	if len(parts) == 0 {
		return "none"
	}
	sort.Strings(parts)
	return fmt.Sprintf("seed=%d %s", p.Seed, strings.Join(parts, " "))
}
