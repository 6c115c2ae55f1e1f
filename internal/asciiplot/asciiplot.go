// Package asciiplot renders simple terminal line/scatter plots, including
// the log-log axes needed to reproduce the paper's Figure 5 (execution time
// versus number of processors for the balanced and non-balanced solvers).
package asciiplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line on a plot. A plot draws its series with the
// markers '*', 'o', '+', 'x', '#', '@', in order.
type Series struct {
	Name string
	X, Y []float64
}

// Config controls rendering.
type Config struct {
	Width, Height int  // plot area in characters (default 60x20)
	LogX, LogY    bool // logarithmic axes
	Title         string
	XLabel        string
	YLabel        string
}

var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// Plot renders the series into a text block.
func Plot(cfg Config, series ...Series) string {
	if cfg.Width <= 0 {
		cfg.Width = 60
	}
	if cfg.Height <= 0 {
		cfg.Height = 20
	}
	// collect ranges
	var xs, ys []float64
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			panic("asciiplot: series X/Y length mismatch")
		}
		xs = append(xs, s.X...)
		ys = append(ys, s.Y...)
	}
	if len(xs) == 0 {
		return "(no data)\n"
	}
	tx := transform(cfg.LogX)
	ty := transform(cfg.LogY)
	xmin, xmax := bounds(xs, tx)
	ymin, ymax := bounds(ys, ty)
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	cells := make([][]byte, cfg.Height)
	for i := range cells {
		cells[i] = []byte(strings.Repeat(" ", cfg.Width))
	}
	for si, s := range series {
		marker := markers[si%len(markers)]
		for i := range s.X {
			cx := int(math.Round(float64(cfg.Width-1) * (tx(s.X[i]) - xmin) / (xmax - xmin)))
			cy := int(math.Round(float64(cfg.Height-1) * (ty(s.Y[i]) - ymin) / (ymax - ymin)))
			row := cfg.Height - 1 - cy
			if row >= 0 && row < cfg.Height && cx >= 0 && cx < cfg.Width {
				cells[row][cx] = marker
			}
		}
	}

	var b strings.Builder
	if cfg.Title != "" {
		fmt.Fprintf(&b, "%s\n", cfg.Title)
	}
	yl, yh := inv(cfg.LogY, ymin), inv(cfg.LogY, ymax)
	fmt.Fprintf(&b, "%10.4g ┤%s\n", yh, string(cells[0]))
	for i := 1; i < cfg.Height-1; i++ {
		fmt.Fprintf(&b, "%10s │%s\n", "", string(cells[i]))
	}
	fmt.Fprintf(&b, "%10.4g ┤%s\n", yl, string(cells[cfg.Height-1]))
	fmt.Fprintf(&b, "%10s └%s\n", "", strings.Repeat("─", cfg.Width))
	xl, xh := inv(cfg.LogX, xmin), inv(cfg.LogX, xmax)
	fmt.Fprintf(&b, "%10s  %-*.4g%*.4g\n", "", cfg.Width/2, xl, cfg.Width-cfg.Width/2, xh)
	axes := ""
	if cfg.LogX {
		axes += " [log x]"
	}
	if cfg.LogY {
		axes += " [log y]"
	}
	if cfg.XLabel != "" || cfg.YLabel != "" || axes != "" {
		fmt.Fprintf(&b, "%10s  x: %s   y: %s%s\n", "", cfg.XLabel, cfg.YLabel, axes)
	}
	for si, s := range series {
		fmt.Fprintf(&b, "%10s  %c %s\n", "", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

func transform(log bool) func(float64) float64 {
	if log {
		return func(v float64) float64 {
			if v <= 0 {
				panic("asciiplot: log axis requires positive values")
			}
			return math.Log10(v)
		}
	}
	return func(v float64) float64 { return v }
}

func inv(log bool, v float64) float64 {
	if log {
		return math.Pow(10, v)
	}
	return v
}

func bounds(vs []float64, t func(float64) float64) (lo, hi float64) {
	lo, hi = t(vs[0]), t(vs[0])
	for _, v := range vs[1:] {
		tv := t(v)
		lo = math.Min(lo, tv)
		hi = math.Max(hi, tv)
	}
	return lo, hi
}
