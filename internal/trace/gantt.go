package trace

import (
	"fmt"
	"strings"
)

// GanttConfig controls ASCII Gantt rendering.
type GanttConfig struct {
	Width int // number of character columns for the time axis (default 100)
}

// Gantt renders the whole log as an ASCII Gantt chart in the style of
// Figures 1-4 of the paper: one row per node, '#' for computation, '.' for
// idle time, 'v'/'^' departure and '>'/'<' arrival markers for sends towards
// higher/lower ranks, 'B'/'b' for load-balancing transfers, '|' for marks,
// and a time ruler at the bottom.
//
// The rendering is intentionally coarse: its purpose is to make the
// qualitative structure (idle gaps under SISC/SIAC, their absence under
// AIAC, suppressed sends under the mutual-exclusion variant) visible in a
// terminal, matching the figures' intent rather than their pixels.
func Gantt(l *Log, cfg GanttConfig) string {
	if cfg.Width <= 0 {
		cfg.Width = 100
	}
	evs := l.Events()
	if len(evs) == 0 {
		return "(empty trace)\n"
	}
	t0, t1 := l.Span()
	if t1 <= t0 {
		t1 = t0 + 1
	}
	nodes := 0
	for _, ev := range evs {
		if ev.Node+1 > nodes {
			nodes = ev.Node + 1
		}
		if ev.To+1 > nodes {
			nodes = ev.To + 1
		}
	}
	col := func(t float64) int {
		c := int(float64(cfg.Width) * (t - t0) / (t1 - t0))
		if c < 0 {
			c = 0
		}
		if c >= cfg.Width {
			c = cfg.Width - 1
		}
		return c
	}

	rows := make([][]byte, nodes)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", cfg.Width))
	}
	paint := func(node int, a, b float64, ch byte) {
		if node < 0 || node >= nodes {
			return
		}
		ca, cb := col(a), col(b)
		for c := ca; c <= cb; c++ {
			rows[node][c] = ch
		}
	}
	// Spans first, then message markers on top so short sends stay visible.
	for _, ev := range evs {
		switch ev.Kind {
		case Compute:
			paint(ev.Node, ev.T0, ev.T1, '#')
		case Balance:
			paint(ev.Node, ev.T0, ev.T1, 'B')
		case Idle:
			// idle is the background; leave as '.'
		}
	}
	for _, ev := range evs {
		switch ev.Kind {
		case SendLeft:
			set(rows, ev.Node, col(ev.T0), '^')
			set(rows, ev.To, col(ev.T1), '<')
		case SendRight:
			set(rows, ev.Node, col(ev.T0), 'v')
			set(rows, ev.To, col(ev.T1), '>')
		case SendLB:
			set(rows, ev.Node, col(ev.T0), 'B')
			set(rows, ev.To, col(ev.T1), 'b')
		case Mark:
			set(rows, ev.Node, col(ev.T0), '|')
		}
	}

	var b strings.Builder
	for i, r := range rows {
		fmt.Fprintf(&b, "P%-2d |%s|\n", i, string(r))
	}
	// time ruler
	fmt.Fprintf(&b, "    +%s+\n", strings.Repeat("-", cfg.Width))
	fmt.Fprintf(&b, "    %-*.4g%*.4g\n", cfg.Width/2+2, t0, cfg.Width/2, t1)
	fmt.Fprintf(&b, "    legend: # compute   . idle   ^/< send to lower rank   v/> send to higher rank   B/b load transfer\n")
	return b.String()
}

func set(rows [][]byte, node, col int, ch byte) {
	if node < 0 || node >= len(rows) {
		return
	}
	if col < 0 || col >= len(rows[node]) {
		return
	}
	rows[node][col] = ch
}

// IdleFractionWithin computes, per node, the idle fraction within that
// node's own active window — from its first to its last Compute/Balance
// event. This is the quantitative counterpart of the white space *between*
// the grey blocks in Figures 1-3, unaffected by nodes finishing at
// different times.
func IdleFractionWithin(l *Log) []float64 {
	evs := l.Events()
	nodes := 0
	for _, ev := range evs {
		if ev.Node+1 > nodes {
			nodes = ev.Node + 1
		}
	}
	busy := make([]float64, nodes)
	first := make([]float64, nodes)
	last := make([]float64, nodes)
	seen := make([]bool, nodes)
	for _, ev := range evs {
		if ev.Kind != Compute && ev.Kind != Balance {
			continue
		}
		n := ev.Node
		busy[n] += ev.T1 - ev.T0
		if !seen[n] || ev.T0 < first[n] {
			first[n] = ev.T0
		}
		if !seen[n] || ev.T1 > last[n] {
			last[n] = ev.T1
		}
		seen[n] = true
	}
	out := make([]float64, nodes)
	for i := range out {
		span := last[i] - first[i]
		if !seen[i] || span <= 0 {
			continue
		}
		f := 1 - busy[i]/span
		if f < 0 {
			f = 0
		}
		out[i] = f
	}
	return out
}
