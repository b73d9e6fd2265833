package main

// metricDef names one metric, its unit and which direction is better. Bound
// is the share of the baseline median by which an end-to-end metric may get
// worse before -compare (and the driver) call it a regression; per-layer
// metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// contractMetrics are the end-to-end metrics BENCHMARK.json registers: every
// workload reports every one of them and none can be zero. The bounds are
// three times the widest run-to-run spread measured on a 2-vCPU shared host
// (README.md, "Measured run-to-run spread"), capped at the contract's 0.25.
// Durations are read on the reference clock (refclock.go).
var contractMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// extraMetrics are end-to-end metrics the driver's contract cannot hold.
// p95_ms doubles when the guest loses its CPU in chunks, which no clock can
// scale away (README.md, "What it cannot do"), and the contract refuses a
// metric that spreads past its bound; write_p50_ms exists on churn only (the
// contract wants every metric on every workload); fail_ratio is 0 on a healthy
// run (the contract wants metrics that are never 0; it carries failures as
// attempted/failed instead). Every run prints them, result files carry them
// and -compare judges them, calling a row whose spread is wider than its bound
// unresolved, not worse. fail_ratio's bound of 0 means "any increase is worse".
var extraMetrics = []metricDef{
	{"p95_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"fail_ratio", "ratio", "lower", 0},
}

// endToEnd is every end-to-end metric a result file may carry.
var endToEnd = append(append([]metricDef(nil), contractMetrics...), extraMetrics...)

// layerMetrics is the per-layer ladder, in the order README.md tabulates it.
// BENCHMARK.json's per_layer list must equal this table
// (TestBenchmarkJSONMatchesTables). The engine.solver_share.* rows follow
// solver.Names(); a solver registered later needs a row here and there.
var layerMetrics = []metricDef{
	{Name: "graph.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.scan_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "graph.overlay_weight_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.overlay_struct_ms", Unit: "ms", Better: "lower"},
	{Name: "dimacs.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "ch.build_kruskal_ms", Unit: "ms", Better: "lower"},
	{Name: "ch.build_naive_ms", Unit: "ms", Better: "lower"},
	{Name: "ch.repair_additive_ms", Unit: "ms", Better: "lower"},
	{Name: "ch.repair_general_ms", Unit: "ms", Better: "lower"},
	{Name: "ch.nodes", Unit: "count", Better: "lower"},
	{Name: "snapshot.write_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.read_copy_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.map_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.map_warm_us", Unit: "us", Better: "lower"},
	{Name: "core.thorup_par_ms", Unit: "ms", Better: "lower"},
	{Name: "core.thorup_serial_ms", Unit: "ms", Better: "lower"},
	{Name: "core.thorup_multi4_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_many16_ms", Unit: "ms", Better: "lower"},
	{Name: "core.thorup_pooled_allocs", Unit: "count", Better: "lower"},
	{Name: "core.thorup_pooled_kb", Unit: "KB", Better: "lower"},
	{Name: "core.settled", Unit: "count", Better: "higher"},
	{Name: "core.gather_useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.hops_per_relaxation", Unit: "ratio", Better: "lower"},
	{Name: "deltastep.sssp_ms", Unit: "ms", Better: "lower"},
	{Name: "dijkstra.sssp_ms", Unit: "ms", Better: "lower"},
	{Name: "mlb.sssp_ms", Unit: "ms", Better: "lower"},
	{Name: "bfs.sssp_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.query_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.query_hit_us", Unit: "us", Better: "lower"},
	{Name: "engine.query_dedup_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.batch16_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.distjson_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.miss_allocs", Unit: "count", Better: "lower"},
	{Name: "engine.self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.solves", Unit: "count", Better: "lower"},
	{Name: "engine.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.dedup_hits", Unit: "count", Better: "higher"},
	{Name: "engine.solver_share.thorup", Unit: "ratio", Better: "higher"},
	{Name: "engine.solver_share.thorup-serial", Unit: "ratio", Better: "higher"},
	{Name: "engine.solver_share.dijkstra", Unit: "ratio", Better: "higher"},
	{Name: "engine.solver_share.delta", Unit: "ratio", Better: "higher"},
	{Name: "engine.solver_share.mlb", Unit: "ratio", Better: "higher"},
	{Name: "engine.solver_share.bfs", Unit: "ratio", Better: "higher"},
	{Name: "catalog.acquire_us", Unit: "us", Better: "lower"},
	{Name: "mutate.additive_ms", Unit: "ms", Better: "lower"},
	{Name: "mutate.general_ms", Unit: "ms", Better: "lower"},
	{Name: "catalog.swaps", Unit: "count", Better: "lower"},
	{Name: "ssspd.http_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "ssspd.http_hit_us", Unit: "us", Better: "lower"},
	{Name: "ssspd.full_json_ms", Unit: "ms", Better: "lower"},
	{Name: "ssspd.http_mutate_ms", Unit: "ms", Better: "lower"},
	{Name: "ssspd.self_us", Unit: "us", Better: "lower"},
	{Name: "ssspd.trace_closure_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ssspd.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "ssspd.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "ssspd.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "router.http_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "router.hop_us", Unit: "us", Better: "lower"},
	{Name: "bench.prep_s", Unit: "s", Better: "lower"},
	{Name: "bench.client_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.loadavg_start", Unit: "count", Better: "lower"},
	{Name: "bench.ref_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.host_factor", Unit: "ratio", Better: "lower"},
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range layerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
