package main

import (
	"fmt"
	"io"
	"sort"
)

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result counts every op the process ran — set-up reps, warm-up, both
// windows, the deep op — and carries exactly the metrics of the pass that
// ran: the end-to-end ones untraced, the per-layer ones traced.
//
// A failed op is left out of every percentile, so the metrics describe
// checked, correct ops only. The run as a whole stops being a valid
// measurement, and correct turns false, when more than one op in a hundred
// failed: the program has a known defect (ROADMAP item 0: a real-time solve
// can halt early on a starved host, measured here at about one dist-loopback
// op in 6000) that has to be counted op by op without voiding every run it
// shows up in.
func (r *runReport) result() result {
	attempted := len(r.setups) + len(r.setupErrs) + r.other.attempted + r.plain.attempted + r.traced.attempted
	failed := len(r.setupErrs) + r.other.failed + r.plain.failed + r.traced.failed
	specs, values := endToEnd, r.endToEndValues
	if r.tr != nil {
		specs, values = perLayer, r.perLayerValues
	}
	v := values()
	out := result{Correct: failed*100 <= attempted, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(specs))}
	for _, s := range specs {
		out.Metrics[s.name] = metric{Value: v[s.name], Unit: s.unit}
	}
	return out
}

// print is the run for people: failures first, then every metric.
func (r *runReport) print(w io.Writer) {
	res := r.result()
	fmt.Fprintf(w, "%s seed %d: %d ops attempted, %d failed, root on memory fs: %v\n",
		r.workload.name, r.seed, res.Attempted, res.Failed, r.memFS)
	errs := append(append(append(append([]error(nil), r.setupErrs...), r.other.errs...), r.plain.errs...), r.traced.errs...)
	for i, err := range errs {
		if i == 5 {
			fmt.Fprintf(w, "  ... and %d more\n", len(errs)-i)
			break
		}
		fmt.Fprintf(w, "  failed op: %v\n", err)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-38s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if r.tr == nil {
		return
	}
	// Where an op's wall went: self time by layer. The rows sum to the op
	// span; harness is the remainder no layer of the program accounts for.
	self := layerSelf(r.tr.rec.snapshot())
	ops := float64(r.traced.attempted)
	var layers []string
	var sum float64
	for layer, s := range self {
		layers = append(layers, layer)
		sum += s
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "  self time per traced op, by layer:\n")
	for _, layer := range layers {
		fmt.Fprintf(w, "    %-10s %12.6f s  %5.1f%%\n", layer, ratio(self[layer], ops), 100*ratio(self[layer], sum))
	}
	fmt.Fprintf(w, "    %-10s %12.6f s\n", "op span", ratio(sum, ops))
}
