package main

// Metric is one row of the benchmark's metric tables. BENCHMARK.json
// is a projection of these tables (name, unit, better, and bound for
// the end-to-end rows); metrics_test.go keeps the two in step.
type Metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // relative worsening that counts as a regression; 0 = not gated
	Layer  string  // module the metric belongs to ("" for end-to-end rows)
	Moves  string  // the end-to-end metric @ workload it should move
}

// endToEnd are the metrics the driver gates. Every workload reports
// every one of them, so each is defined per workload (see README.md):
//
//	workload     op_ms_p50            alt_ms_p50
//	compile      compile_ms           compile_dist_ms (the 12 p=2 cells)
//	run-interp   run_ms (VM)          dist_run_ms
//	run-go       run_ms (native wall) run_c2f4_ms (the 6 c2+f4 cells)
//	lazy-*       vm_eval_us_p50/1000  go_eval_us_p50/1000
//	serve-*      hot_ms_p50           cold_ms_p50
//
// ops_per_s is main operations per second (hot_req_per_s on the serve
// workloads). Every bound is the contract's ceiling: between a quiet
// spell of this sandbox and a busy one the median of the same code
// moves by up to 13% (README.md, "Repeatability").
var endToEnd = []Metric{
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alt_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// named are the workload-specific end-to-end metrics, under the names
// issues refer to. A workload reports only the rows that apply to it
// and 0 for the rest, which is why the driver cannot gate them (it
// requires every workload to report every gated metric, never 0);
// -compare gates them with the bounds below.
var named = []Metric{
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"}, // any rise is a regression
	{Name: "compile_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "compile_dist_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "run_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "run_c2f4_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "dist_run_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "contraction_speedup", Unit: "x", Better: "higher", Bound: 0.20},
	{Name: "vm_eval_us_p50", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "go_eval_us_p50", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "cold_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "disk_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peer_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "hot_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "hot_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "hot_req_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
}

// perLayer are the single-layer metrics. Times are the layer's self
// time per operation; a metric whose unit is "count" must repeat
// exactly between runs with the same arguments.
var perLayer = []Metric{
	{Name: "parser.parse_ms", Unit: "ms", Better: "lower", Layer: "parser", Moves: "compile_ms@compile; cold_ms_p50@serve-*"},
	{Name: "sema.check_ms", Unit: "ms", Better: "lower", Layer: "sema", Moves: "compile_ms@compile; cold_ms_p50@serve-*"},
	{Name: "lower.lower_ms", Unit: "ms", Better: "lower", Layer: "lower", Moves: "compile_ms@compile; cold_ms_p50@serve-*"},
	{Name: "comm.insert_ms", Unit: "ms", Better: "lower", Layer: "comm", Moves: "compile_dist_ms@compile (p=2 cells only)"},
	{Name: "core.asdg_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "compile_ms@compile; cold_ms_p50@serve-*"},
	{Name: "core.fusion_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "compile_ms, compile_dist_ms@compile; cold_ms_p50@serve-*"},
	{Name: "core.contraction_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "compile_ms@compile; cold_ms_p50@serve-*"},
	{Name: "core.nests", Unit: "count", Better: "lower", Layer: "core", Moves: "run_ms, contraction_speedup@run-*"},
	{Name: "core.arrays_total", Unit: "count", Better: "lower", Layer: "core", Moves: "vm.footprint_bytes_baseline"},
	{Name: "core.arrays_contracted", Unit: "count", Better: "higher", Layer: "core", Moves: "contraction_speedup, run_ms@run-*; vm.footprint_bytes_c2f4"},
	{Name: "scalarize.scalarize_ms", Unit: "ms", Better: "lower", Layer: "scalarize", Moves: "compile_ms@compile"},
	{Name: "scalarize.lir_nodes", Unit: "count", Better: "lower", Layer: "scalarize", Moves: "absint.prove_ms, mhp.race_ms, gogen.emit_ms, vm.new_ms"},
	{Name: "absint.prove_ms", Unit: "ms", Better: "lower", Layer: "absint", Moves: "compile_ms@compile"},
	{Name: "absint.sites_total", Unit: "count", Better: "lower", Layer: "absint", Moves: "absint.prove_ms"},
	{Name: "absint.sites_proven", Unit: "count", Better: "higher", Layer: "absint", Moves: "run_ms@run-interp, run-go"},
	{Name: "mhp.race_ms", Unit: "ms", Better: "lower", Layer: "mhp", Moves: "compile_dist_ms@compile (p=2 cells only)"},
	{Name: "mhp.pairs", Unit: "count", Better: "lower", Layer: "mhp", Moves: "mhp.race_ms"},
	{Name: "mhp.pairs_ordered", Unit: "count", Better: "higher", Layer: "mhp", Moves: "(must equal mhp.pairs)"},
	{Name: "gogen.emit_ms", Unit: "ms", Better: "lower", Layer: "gogen", Moves: "compile_ms@compile; setup_s@run-go"},
	{Name: "gogen.code_bytes", Unit: "B", Better: "lower", Layer: "gogen", Moves: "backend.build_ms"},
	{Name: "gogen.compute_ms", Unit: "ms", Better: "lower", Layer: "gogen", Moves: "run_ms@run-go; go_eval_us_p50@lazy-large; none@lazy-small"},
	{Name: "gogen.ns_per_elem", Unit: "ns", Better: "lower", Layer: "gogen", Moves: "run_ms@run-go"},
	{Name: "gogen.vs_hand_ratio", Unit: "x", Better: "lower", Layer: "gogen", Moves: "run_ms@run-go (roofline: emitted / hand-written heat)"},
	{Name: "vm.new_ms", Unit: "ms", Better: "lower", Layer: "vm", Moves: "run_ms@run-interp; vm_eval_us_p50@lazy-small"},
	{Name: "vm.run_ms", Unit: "ms", Better: "lower", Layer: "vm", Moves: "run_ms@run-interp; vm_eval_us_p50@lazy-large; hot_ms_p50@serve-*; none@run-go"},
	{Name: "vm.ns_per_elem", Unit: "ns", Better: "lower", Layer: "vm", Moves: "run_ms@run-interp"},
	{Name: "vm.steps", Unit: "count", Better: "lower", Layer: "vm", Moves: "run_ms@run-interp"},
	{Name: "vm.footprint_bytes_baseline", Unit: "B", Better: "lower", Layer: "vm", Moves: "run_ms@run-interp (baseline cells)"},
	{Name: "vm.footprint_bytes_c2f4", Unit: "B", Better: "lower", Layer: "vm", Moves: "contraction_speedup@run-*"},
	{Name: "distvm.run_ms", Unit: "ms", Better: "lower", Layer: "distvm", Moves: "dist_run_ms@run-interp"},
	{Name: "distvm.ns_per_elem", Unit: "ns", Better: "lower", Layer: "distvm", Moves: "dist_run_ms@run-interp"},
	{Name: "distvm.vs_vm_ratio", Unit: "x", Better: "lower", Layer: "distvm", Moves: "dist_run_ms@run-interp"},
	{Name: "backend.build_ms", Unit: "ms", Better: "lower", Layer: "backend", Moves: "setup_s@run-go, lazy-*"},
	{Name: "backend.build_hit_us", Unit: "us", Better: "lower", Layer: "backend", Moves: "go_eval_us_p50@lazy-small"},
	{Name: "backend.spawn_ms", Unit: "ms", Better: "lower", Layer: "backend", Moves: "go_eval_us_p50@lazy-small; <15% of run_ms@run-go"},
	{Name: "backend.bin_bytes", Unit: "B", Better: "lower", Layer: "backend", Moves: "backend.spawn_ms"},
	{Name: "lazy.issue_us", Unit: "us", Better: "lower", Layer: "lazy", Moves: "ops_per_s@lazy-small"},
	{Name: "lazy.readback_us", Unit: "us", Better: "lower", Layer: "lazy", Moves: "ops_per_s@lazy-small"},
	{Name: "lazy.batches_per_eval", Unit: "ratio", Better: "lower", Layer: "lazy", Moves: "vm_eval_us_p50, go_eval_us_p50@lazy-small"},
	{Name: "lazy.cache_misses", Unit: "count", Better: "lower", Layer: "lazy", Moves: "(must be 0 in the timed loop)"},
	{Name: "lazy.state_bytes_per_eval", Unit: "B", Better: "lower", Layer: "lazy", Moves: "go_eval_us_p50@lazy-large"},
	{Name: "ccache.key_us", Unit: "us", Better: "lower", Layer: "ccache", Moves: "hot_ms_p50, hot_req_per_s@serve-*"},
	{Name: "ccache.get_us", Unit: "us", Better: "lower", Layer: "ccache", Moves: "hot_ms_p50, hot_req_per_s@serve-*"},
	{Name: "ccache.hit_ratio", Unit: "ratio", Better: "higher", Layer: "ccache", Moves: "hot_ms_p50@serve-*"},
	{Name: "store.encode_us", Unit: "us", Better: "lower", Layer: "store", Moves: "cold_ms_p50@serve-*"},
	{Name: "store.decode_us", Unit: "us", Better: "lower", Layer: "store", Moves: "disk_ms_p50@serve-1node; peer_ms_p50@serve-3node"},
	{Name: "store.envelope_bytes", Unit: "B", Better: "lower", Layer: "store", Moves: "store.*_us"},
	{Name: "store.disk_get_us", Unit: "us", Better: "lower", Layer: "store", Moves: "disk_ms_p50@serve-1node"},
	{Name: "store.disk_put_us", Unit: "us", Better: "lower", Layer: "store", Moves: "cold_ms_p50@serve-*"},
	{Name: "store.peer_get_us", Unit: "us", Better: "lower", Layer: "store", Moves: "peer_ms_p50@serve-3node"},
	{Name: "svc.tier_compile", Unit: "count", Better: "lower", Layer: "svc", Moves: "cold_ms_p50@serve-*"},
	{Name: "svc.tier_mem", Unit: "count", Better: "higher", Layer: "svc", Moves: "hot_ms_p50@serve-*"},
	{Name: "svc.tier_disk", Unit: "count", Better: "higher", Layer: "svc", Moves: "disk_ms_p50@serve-1node"},
	{Name: "svc.tier_peer", Unit: "count", Better: "higher", Layer: "svc", Moves: "peer_ms_p50@serve-3node"},
	{Name: "svc.shed", Unit: "count", Better: "lower", Layer: "svc", Moves: "fail_ratio@serve-*"},
	{Name: "svc.overhead_us", Unit: "us", Better: "lower", Layer: "svc", Moves: "hot_ms_p50, hot_req_per_s@serve-*"},
	{Name: "svc.compiles_per_key", Unit: "ratio", Better: "lower", Layer: "svc", Moves: "cold_ms_p50@serve-3node (must be 1.0)"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Layer: "bench", Moves: "(reported, not gated)"},
	{Name: "bench.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "bench", Moves: "(reported, not gated)"},
}

// tracedMetrics is what a --trace 1 run reports: the named end-to-end
// rows (from the untraced half of the run) and every per-layer row.
func tracedMetrics() []Metric { return append(append([]Metric(nil), named...), perLayer...) }

// exact reports whether m is a count that must repeat exactly.
func (m Metric) exact() bool { return m.Unit == "count" }
