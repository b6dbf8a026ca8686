package main

import "streamcache/internal/experiments"

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names and units; a self-test keeps the two in step.
type metricDef struct {
	name string
	unit string
}

// endToEnd are measured with tracing off, on every workload. Each
// workload defines its operation: a figure set (sweep), a GET of a whole
// object (live-hit) or a viewing session (live-partial).
var endToEnd = []metricDef{
	{"setup_s", "s"},          // median of setupRepeats set-ups, warm-up included
	{"rss_peak_mb", "MB"},     // peak resident set of the process
	{"latency_mean_ms", "ms"}, // set wall time, response time, or startup delay from the due time
	{"cpu_ms_per_op", "ms"},   // process CPU time per completed operation
	{"throughput_ops", "1/s"}, // completed operations per second of the measured phase
}

// perLayer are reported by traced runs. A workload that does not run a
// layer reports it as 0.
var perLayer = append(experimentLayers(), []metricDef{
	{"experiments.rows", "count"},
	{"experiments.sink_us_per_row", "us"},
	{"par.busy_frac", "frac"},
	{"sweep.alloc_mb", "MB"},
	{"sweep.gc_cycles", "count"},
	{"sweep.wall_s", "s"},
	{"sweep.cpu_s", "s"},
	{"workload.generate_ms", "ms"},
	{"sim.ns_per_req", "ns"},
	{"sim.allocs_per_req", "count"},
	{"core.access_ns", "ns"},
	{"core.allocs_per_access", "count"},
	{"proxy.hit_serve_us.p50", "us"},
	{"proxy.hit_serve_us.p99", "us"},
	{"proxy.first_write_us.p50", "us"},
	{"proxy.relay_serve_ms.p50", "ms"},
	{"proxy.relay_serve_ms.p90", "ms"},
	{"proxy.self_us_per_req", "us"},
	{"proxy.prefix_hit_ratio", "frac"},
	{"proxy.coalesced_frac", "frac"},
	{"proxy.cache_used_frac", "frac"},
	{"proxy.alloc_kb_per_req", "KB"},
	{"proxy.gc_per_kreq", "count"},
	{"origin.fetches_per_req", "count"},
	{"origin.serve_ms.p50", "ms"},
	{"origin.new_conns_per_fetch", "count"},
	{"upstream.wait_ms.p50", "ms"},
	{"estimator.rel_error.mean", "frac"},
	{"client.conn_reuse_frac", "frac"},
	{"client.overhead_us.p50", "us"},
	{"gen.lateness_ms.p90", "ms"},
	{"gen.queue_wait_ms.p90", "ms"},
	{"live.resp_p50_ms", "ms"},
	{"live.resp_p99_ms", "ms"},
	{"live.goodput_mbps", "Mbit/s"},
	{"live.byte_hit_ratio", "frac"},
	{"live.startup_p90_ms", "ms"},
	{"live.slo_miss_frac", "frac"},
	{"live.failed_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}...)

// experimentLayers declares one wall-time metric per experiment of the
// figure set.
func experimentLayers() []metricDef {
	var defs []metricDef
	for _, e := range experiments.Experiments() {
		defs = append(defs, metricDef{"experiments." + e.Key + ".s", "s"})
	}
	return defs
}
