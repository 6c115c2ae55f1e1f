package main

import (
	"aiac/internal/trace"
)

// metricSpec names one metric of BENCHMARK.json. The two tables below are
// the benchmark's side of that file; a test holds them equal.
type metricSpec struct {
	name, unit string
}

// higherIsBetter names the few metrics for which BENCHMARK.json says so;
// lower is better for the rest.
var higherIsBetter = map[string]bool{
	"trace.crit_compute_share": true,
	"obs.solves_per_s":         true,
	"proc.ops_in_window":       true,
	"harness.root_on_memfs":    true,
}

// endToEnd are the metrics of the untraced pass, the same five on every
// workload. Lower is better for all of them.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_wall_s_min", "s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"model_time_s", "s"},
}

// perLayer are the metrics of the traced pass. Every workload prints every
// one; a layer the workload does not cross reads 0.
var perLayer = []metricSpec{
	{"solver.update_calls_per_op", "count"},
	{"solver.work_units_per_op", "count"},
	{"solver.busy_s_per_op", "s"},
	{"solver.self_s_per_op", "s"},
	{"solver.window_ns_per_step", "ns"},

	{"engine.iters_per_op", "count"},
	{"engine.boundary_msgs_per_op", "count"},
	{"engine.suppressed_sends_per_op", "count"},
	{"engine.self_s_per_op", "s"},

	{"loadbalance.transfers_per_op", "count"},
	{"loadbalance.comps_moved_per_op", "count"},
	{"loadbalance.retries_per_op", "count"},

	{"vtime.events_per_op", "count"},
	{"vtime.event_ns", "ns"},
	{"vtime.windows_per_op", "count"},
	{"vtime.single_group_share", "ratio"},
	{"vtime.mean_window_s", "s"},

	{"rtime.sends_per_op", "count"},
	{"rtime.recvwait_s_per_op", "s"},
	{"rtime.work_wait_s_per_op", "s"},
	{"rtime.send_us_mean", "us"},
	{"rtime.self_s_per_op", "s"},
	{"rtime.pingpong_us", "us"},

	{"dtime.frames_per_op", "count"},
	{"dtime.wire_bytes_per_op", "bytes"},
	{"dtime.write_block_s_per_op", "s"},
	{"dtime.self_s_per_op", "s"},
	{"dtime.startup_s_p50", "s"},
	{"dtime.wire_transit_us_p50", "us"},
	{"dtime.frame_codec_ns", "ns"},

	{"codec.encode_ns_per_msg", "ns"},
	{"codec.decode_ns_per_msg", "ns"},
	{"codec.bytes_per_msg", "bytes"},

	{"fault.conn_passthrough_ns_per_frame", "ns"},

	{"trace.events_per_op", "count"},
	{"trace.crit_compute_share", "ratio"},
	{"trace.crit_idle_share", "ratio"},
	{"trace.crit_transit_share", "ratio"},
	{"trace.crit_lb_share", "ratio"},
	{"trace.crit_wire_share", "ratio"},
	{"trace.write_csv_ms", "ms"},
	{"trace.federate_ms", "ms"},

	{"metrics.jsonl_bytes_per_run", "bytes"},
	{"metrics.jsonl_write_us", "us"},
	{"report.render_us", "us"},

	{"obs.submit_s_p50", "s"},
	{"obs.start_delay_s_p50", "s"},
	{"obs.run_s_p50", "s"},
	{"obs.seal_to_client_s_p50", "s"},
	{"obs.self_s_per_op", "s"},
	{"obs.sse_bytes_per_run", "bytes"},
	{"obs.op_wall_s_p50", "s"},
	{"obs.op_wall_s_p99", "s"},
	{"obs.solves_per_s", "1/s"},
	{"obs.shed_429", "count"},
	{"obs.registry_put_us", "us"},
	{"obs.scheduler_submit_us", "us"},
	{"obs.sse_replay_us", "us"},
	{"obs.rescan_ms_per_1k_runs", "ms"},

	{"proc.cpu_s_per_op", "s"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_cycles_per_op", "count"},
	{"proc.gc_pause_ms_per_op", "ms"},
	{"proc.op_wall_s_p10", "s"},
	{"proc.op_wall_s_p50", "s"},
	{"proc.op_wall_s_p90", "s"},
	{"proc.ops_in_window", "count"},

	{"harness.op_span_s_per_op", "s"},
	{"harness.unattributed_s_per_op", "s"},
	{"harness.trace_overhead", "ratio"},
	{"harness.root_on_memfs", "count"},
}

// endToEndValues are the gated figures of an untraced run.
func (r *runReport) endToEndValues() map[string]float64 {
	w := &r.plain
	return map[string]float64{
		"setup_s":         lowest(r.setups),
		"op_wall_s_min":   lowest(w.walls),
		"alloc_mb_per_op": lowest(w.chunkAllocs) / 1e6,
		"peak_rss_mb":     r.peakRSSMB,
		"model_time_s":    mean(w.models),
	}
}

// perLayerValues are the figures of a traced run: proc.* and the service's
// throughput from its untraced half, everything else from the traced half,
// the deep op and the probes.
func (r *runReport) perLayerValues() map[string]float64 {
	plain, traced, tr := &r.plain, &r.traced, r.tr
	ops := float64(traced.attempted)
	perOp := func(x float64) float64 { return ratio(x, ops) }
	spans := tr.rec.snapshot()
	self := layerSelf(spans)
	var opSpan float64
	for _, s := range spans {
		if s.Parent == 0 {
			opSpan += s.dur()
		}
	}
	m := map[string]float64{
		"solver.update_calls_per_op": perOp(float64(tr.kernelCalls)),
		"solver.work_units_per_op":   perOp(float64(tr.kernelWork)),
		"solver.busy_s_per_op":       perOp(tr.kernelBusy.Seconds()),
		"solver.self_s_per_op":       perOp(self["solver"]),

		"engine.iters_per_op":            perOp(traced.counts.iters),
		"engine.boundary_msgs_per_op":    perOp(traced.counts.boundaryMsgs),
		"engine.suppressed_sends_per_op": perOp(traced.counts.suppressed),
		"engine.self_s_per_op":           perOp(self["engine"]),

		"loadbalance.transfers_per_op":   perOp(traced.counts.lbTransfers),
		"loadbalance.comps_moved_per_op": perOp(traced.counts.lbCompsMoved),
		"loadbalance.retries_per_op":     perOp(traced.counts.lbRetries),

		"vtime.events_per_op": perOp(float64(tr.vtEvents)),

		"rtime.sends_per_op":       perOp(float64(tr.rtSends)),
		"rtime.recvwait_s_per_op":  perOp(tr.rtRecvWait.Seconds()),
		"rtime.work_wait_s_per_op": perOp(tr.rtWorkWait.Seconds()),
		"rtime.send_us_mean":       ratio(tr.rtSend.Seconds()*1e6, float64(tr.rtSends)),
		"rtime.self_s_per_op":      perOp(self["rtime"]),

		"dtime.frames_per_op":        perOp(float64(tr.wireFrames)),
		"dtime.wire_bytes_per_op":    perOp(float64(tr.wireBytes)),
		"dtime.write_block_s_per_op": perOp(tr.wireWriteBlock.Seconds()),
		"dtime.self_s_per_op":        perOp(self["dtime"]),
		"dtime.startup_s_p50":        percentile(tr.distStartups, 50),
		"dtime.wire_transit_us_p50":  percentile(tr.wireTransitUs, 50),

		"trace.events_per_op":      float64(tr.traceEvents),
		"trace.crit_compute_share": tr.crit[trace.SegCompute],
		"trace.crit_idle_share":    tr.crit[trace.SegIdle],
		"trace.crit_transit_share": tr.crit[trace.SegTransit],
		"trace.crit_lb_share":      tr.crit[trace.SegLB],
		"trace.crit_wire_share":    tr.crit[trace.SegWire],

		"metrics.jsonl_bytes_per_run": ratio(float64(tr.jsonlBytes), float64(tr.jsonlRuns)),

		"obs.submit_s_p50":         percentile(tr.http.submitS, 50),
		"obs.start_delay_s_p50":    percentile(tr.startDelay, 50),
		"obs.run_s_p50":            percentile(tr.runS, 50),
		"obs.seal_to_client_s_p50": percentile(tr.sealToClient, 50),
		"obs.self_s_per_op":        perOp(self["obs"]),
		"obs.sse_bytes_per_run":    ratio(float64(tr.http.sseBytes), float64(tr.http.sseRuns)),
		"obs.shed_429":             float64(tr.http.shed),

		"proc.cpu_s_per_op":       ratio(plain.cpuS, float64(plain.attempted)),
		"proc.allocs_per_op":      ratio(float64(plain.mallocs), float64(plain.attempted)),
		"proc.gc_cycles_per_op":   ratio(float64(plain.gcCycles), float64(plain.attempted)),
		"proc.gc_pause_ms_per_op": ratio(float64(plain.gcPauseNs)/1e6, float64(plain.attempted)),
		"proc.op_wall_s_p10":      percentile(plain.walls, 10),
		"proc.op_wall_s_p50":      percentile(plain.walls, 50),
		"proc.op_wall_s_p90":      percentile(plain.walls, 90),
		"proc.ops_in_window":      float64(plain.attempted),

		"harness.op_span_s_per_op":      perOp(opSpan),
		"harness.unattributed_s_per_op": perOp(self["harness"]),
		"harness.trace_overhead":        ratio(lowest(traced.walls), lowest(plain.walls)) - 1,
	}
	if r.memFS {
		m["harness.root_on_memfs"] = 1
	}
	if r.workload.service() {
		m["obs.op_wall_s_p50"] = percentile(plain.walls, 50)
		m["obs.op_wall_s_p99"] = percentile(plain.walls, 99)
		m["obs.solves_per_s"] = ratio(float64(plain.attempted-plain.failed), plain.wallS)
	}
	if sim := tr.sim; sim != nil && sim.Windows > 0 {
		m["vtime.windows_per_op"] = float64(sim.Windows)
		m["vtime.single_group_share"] = float64(sim.SingleGroupWindows) / float64(sim.Windows)
		m["vtime.mean_window_s"] = sim.MeanWindowWidth
	}
	for name, v := range r.probes {
		m[name] = v
	}
	return m
}
