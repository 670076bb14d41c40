package main

import (
	"sort"
)

// metricDef is one catalogued metric. BENCHMARK.json lists the same
// names, units and directions (catalog_test.go holds them together).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics an untraced run reports on every workload.
// A request is what the user waits for: one beebsbench sweep on the
// sweep workload, one /v1/optimize call on serve. wall_s is the median
// job: a sweep, or a pass of passRequests requests against a fresh
// daemon. The ratios are figures of merit of the placed images versus
// all-flash (energy, time, power, useful work per mJ), averaged over the
// workload's answers; they are deterministic.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"req_p50_ms", "ms", "lower"},
	{"req_p99_ms", "ms", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"energy_ratio", "ratio", "lower"},
	{"time_ratio", "ratio", "lower"},
	{"power_ratio", "ratio", "lower"},
	{"work_per_mj_ratio", "ratio", "higher"},
}

// perLayer are the metrics a traced run reports on every workload; a
// layer the workload does not exercise reads 0. Times are self times in
// ms per sweep or per pass (serve).
var perLayer = []metricDef{
	{"mcc.compile_ms", "ms", "lower"},
	{"core.self_ms", "ms", "lower"},
	{"core.stage_hit_rate", "frac", "higher"},
	{"core.sim_runs", "count", "lower"},
	{"cfg.build_ms", "ms", "lower"},
	{"freq.estimate_ms", "ms", "lower"},
	{"model.build_ms", "ms", "lower"},
	{"model.ilp_rows", "count", "lower"},
	{"model.ilp_cols", "count", "lower"},
	{"placement.solve_ms", "ms", "lower"},
	{"ilp.nodes", "count", "lower"},
	{"placement.ms_per_node", "ms", "lower"},
	{"placement.proven_frac", "frac", "higher"},
	{"placement.warm_hit_rate", "frac", "higher"},
	{"placement.warm_proofs", "count", "higher"},
	{"transform.apply_ms", "ms", "lower"},
	{"transform.instrumented_blocks", "count", "lower"},
	{"layout.ms", "ms", "lower"},
	{"analysis.ms", "ms", "lower"},
	{"sim.baseline_ms", "ms", "lower"},
	{"sim.baseline_mips", "Minstr/s", "higher"},
	{"sim.opt_ms", "ms", "lower"},
	{"sim.opt_mips", "Minstr/s", "higher"},
	{"sim.replay_ms", "ms", "lower"},
	{"sim.replay_mips", "Minstr/s", "higher"},
	{"sim.replayed_frac", "frac", "lower"},
	{"sim.checkpoints", "count", "lower"},
	{"sim.outages", "count", "lower"},
	{"trace.traced_ms", "ms", "lower"},
	{"trace.traced_mips", "Minstr/s", "higher"},
	{"evaluation.encode_ms", "ms", "lower"},
	{"service.handler_p50_ms", "ms", "lower"},
	{"service.handler_p99_ms", "ms", "lower"},
	{"service.store_hit_rate", "frac", "higher"},
	{"service.store_evictions", "count", "lower"},
	{"bench.traced_wall_ms", "ms", "lower"},
	{"bench.untraced_wall_ms", "ms", "lower"},
	{"bench.trace_overhead_ms", "ms", "lower"},
	{"bench.unaccounted_frac", "frac", "lower"},
}

// layers maps the clock's span names to the per-layer time metrics.
var layers = map[string]string{
	"mcc":          "mcc.compile_ms",
	"core":         "core.self_ms",
	"cfg":          "cfg.build_ms",
	"freq":         "freq.estimate_ms",
	"model":        "model.build_ms",
	"placement":    "placement.solve_ms",
	"transform":    "transform.apply_ms",
	"layout":       "layout.ms",
	"analysis":     "analysis.ms",
	"sim.baseline": "sim.baseline_ms",
	"sim.opt":      "sim.opt_ms",
	"sim.replay":   "sim.replay_ms",
	"trace":        "trace.traced_ms",
	"evaluation":   "evaluation.encode_ms",
}

// layerMetrics turns one replay's spans and counts into per-layer
// metrics.
func layerMetrics(r *replayer) map[string]float64 {
	m := map[string]float64{}
	for span, name := range layers {
		m[name] = r.clk.ms[span]
	}
	n := r.n
	m["model.ilp_rows"], m["model.ilp_cols"] = r.ilpSize()
	m["ilp.nodes"] = n.nodes
	m["placement.ms_per_node"] = div(r.clk.ms["placement"], n.nodes)
	m["placement.proven_frac"] = div(n.proven, n.solves)
	m["transform.instrumented_blocks"] = n.instrumented
	m["sim.baseline_mips"] = mips(n.baselineInstr, r.clk.ms["sim.baseline"])
	m["sim.opt_mips"] = mips(n.optInstr, r.clk.ms["sim.opt"])
	m["sim.replay_mips"] = mips(n.replayInstr, r.clk.ms["sim.replay"])
	m["trace.traced_mips"] = mips(n.tracedInstr, r.clk.ms["trace"])
	m["sim.replayed_frac"] = div(n.replayedInstr, n.replayInstr)
	m["sim.checkpoints"] = n.checkpoints
	m["sim.outages"] = n.outages
	m["bench.traced_wall_ms"] = r.clk.wallMS()
	m["bench.unaccounted_frac"] = r.clk.unaccounted()
	return m
}

// layerShares is each layer's share of the traced wall.
func layerShares(c *clock) map[string]float64 {
	out := map[string]float64{}
	w := c.wallMS()
	for span, v := range c.ms {
		if w > 0 {
			out[span] = v / w
		}
	}
	return out
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mips is millions of instructions per second from a count and ms.
func mips(instr, ms float64) float64 { return div(instr, ms*1e3) }

// traceNotes fills a traced run's result with the median of each
// per-layer metric over its replays and returns the notes: the median
// layer shares and the replay count.
func traceNotes(res *Result, runs, shares []map[string]float64) map[string]any {
	for _, d := range perLayer {
		var v []float64
		for _, m := range runs {
			v = append(v, m[d.Name])
		}
		res.Metrics[d.Name] = Metric{median(v), d.Unit}
	}
	share := map[string]float64{}
	names := map[string]bool{}
	for _, s := range shares {
		for k := range s {
			names[k] = true
		}
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var v []float64
		for _, s := range shares {
			v = append(v, s[k])
		}
		share[k] = median(v)
	}
	return map[string]any{"replays": len(runs), "layer_shares": share}
}
