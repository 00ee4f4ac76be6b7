package main

// The benchmark's vocabulary: workload names, metric names, units,
// directions and regression bounds. BENCHMARK.json at the repository root
// states the same names for the driver; TestBenchmarkJSONMatchesDefs keeps
// the two from drifting.

// metricDef names one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline by which the metric may get worse
	// before -compare calls it regressed (end-to-end metrics only).
	Bound float64
	// AbsBound, when non-zero, is an absolute slack in the metric's unit:
	// the metric regresses only if it is worse by more than both bounds.
	AbsBound float64
	// Contract marks the end-to-end metrics every workload reports and
	// that are never 0: exactly these appear in BENCHMARK.json and in the
	// JSON line of a `-trace 0` run. The other end-to-end metrics are
	// printed, saved with -out and judged by -compare where they apply.
	Contract bool
}

// Bounds are wider than a same-seed rerun needs because the driver holds
// each metric's spread *across seeds* to its bound: different seeds draw
// different queries, and on a shared 2-core box the workloads that need both
// cores lose 20 % and more for minutes at a time when a neighbour is busy
// (measured spreads in README.md). The counts (dist_per_query, peak_rss_mb)
// do not depend on the neighbours and are held tighter.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, AbsBound: 0.25, Contract: true},
	{Name: "throughput_qps", Unit: "queries/s", Better: "higher", Bound: 0.25, Contract: true},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "lat_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "dist_per_query", Unit: "evaluations", Better: "lower", Bound: 0.15, Contract: true},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20, Contract: true},
}

// exactDist lists the workloads whose dist_per_query must repeat exactly
// between two runs of one commit at one seed (bound 0 in -compare).
var exactDist = map[string]bool{"protein-seq": true, "traj-erp-seq": true}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer lists every per-layer metric a `-trace 1` run reports, grouped by
// the module it measures.
var perLayer = []metricDef{
	// internal/dist
	lower("dist.myers_ns_per_eval", "ns"),
	lower("dist.myers_bounded_ns_per_eval", "ns"),
	lower("dist.myers_kernel_ns_per_pass", "ns"),
	lower("dist.erp_ns_per_eval", "ns"),
	lower("dist.erp_bounded_ns_per_eval", "ns"),
	lower("dist.erp_verify_ns_per_eval", "ns"),
	// internal/refnet and the three baselines
	lower("refnet.build_s", "s"),
	lower("refnet.build_dist_per_window", "evaluations"),
	lower("refnet.range_dist_per_probe", "evaluations"),
	lower("refnet.range_us_per_probe", "us"),
	higher("refnet.pruned_share", "ratio"),
	lower("refnet.batchrange_us_per_probe", "us"),
	lower("refnet.edgebounds_off_dist_per_probe", "evaluations"),
	lower("refnet.edgebounds_off_us_per_probe", "us"),
	lower("refnet.struct_bytes_per_window", "bytes"),
	lower("refnet.avg_parents", "count"),
	lower("covertree.range_dist_per_probe", "evaluations"),
	lower("covertree.range_us_per_probe", "us"),
	lower("refindex.range_dist_per_probe", "evaluations"),
	lower("refindex.range_us_per_probe", "us"),
	lower("linear.range_us_per_probe", "us"),
	// internal/core, filter vs verify
	lower("core.filter_ms_per_query", "ms"),
	lower("core.verify_ms_per_query", "ms"),
	lower("core.filter_share", "ratio"),
	lower("core.filter_dist_per_query", "evaluations"),
	lower("core.verify_dist_per_query", "evaluations"),
	lower("core.segments_per_query", "count"),
	lower("core.hits_per_query", "count"),
	lower("core.matches_per_query", "count"),
	higher("core.verify_useful_ratio", "ratio"),
	lower("core.findall_ms", "ms"),
	lower("core.longest_ms", "ms"),
	lower("core.nearest_ms", "ms"),
	lower("core.allocs_per_query", "count"),
	lower("core.bytes_per_query", "bytes"),
	// the batch engine
	lower("batch.ms_per_query", "ms"),
	lower("batch.dist_per_query", "evaluations"),
	lower("batch.vs_seq_ratio", "ratio"),
	lower("batch.calls", "count"),
	higher("batch.queries_per_call", "count"),
	// the streaming scheduler
	lower("stream.queue_wait_p50_ms", "ms"),
	lower("stream.queue_wait_p95_ms", "ms"),
	lower("stream.engine_lat_p50_ms", "ms"),
	higher("stream.coalesced_per_batch", "count"),
	higher("stream.max_batch", "count"),
	lower("stream.barrier_ms_per_burst", "ms"),
	lower("stream.submit_ms_per_burst", "ms"),
	lower("stream.noop_roundtrip_us", "us"),
	lower("stream.shed", "count"),
	lower("stream.expired", "count"),
	lower("stream.crashed", "count"),
	// internal/store
	lower("store.append_ms", "ms"),
	lower("store.retire_ms", "ms"),
	lower("store.append_dist_per_window", "evaluations"),
	lower("store.snapshot_ms", "ms"),
	lower("store.snapshot_bytes_per_window", "bytes"),
	lower("store.restore_ms", "ms"),
	lower("store.restore_dist", "evaluations"),
	// subseqctl serve
	lower("serve.startup_s", "s"),
	lower("serve.overhead_ms", "ms"),
	lower("serve.findall_p50_ms", "ms"),
	lower("serve.longest_p50_ms", "ms"),
	lower("serve.filter_p50_ms", "ms"),
	lower("serve.nearest_p50_ms", "ms"),
	lower("serve.batch_p50_ms", "ms"),
	lower("serve.append_p50_ms", "ms"),
	lower("serve.retire_p50_ms", "ms"),
	lower("serve.resp_bytes_per_query", "bytes"),
	lower("serve.http_429", "count"),
	lower("serve.http_5xx", "count"),
	lower("serve.rss_mb", "MiB"),
	// internal/shard gateway
	higher("gateway.cache_hit_ratio", "ratio"),
	lower("gateway.cache_evictions", "count"),
	lower("gateway.cache_invalidations", "count"),
	higher("gateway.single_flight_hit_ratio", "ratio"),
	lower("gateway.hit_p50_ms", "ms"),
	lower("gateway.miss_p50_ms", "ms"),
	lower("gateway.overhead_ms", "ms"),
	lower("gateway.write_p50_ms", "ms"),
	higher("gateway.write_acks_per_write", "count"),
	lower("gateway.hedges", "count"),
	lower("gateway.failovers", "count"),
	lower("gateway.degraded", "count"),
	lower("gateway.shard_errors", "count"),
	lower("gateway.rss_mb", "MiB"),
	lower("gateway.shards_rss_mb", "MiB"),
	// the harness itself
	lower("client.lat_p99_ms", "ms"),
	higher("client.samples", "count"),
	lower("bench.build_s", "s"),
	lower("bench.trace_overhead_share", "ratio"),
}

// workloadDef names one workload and freezes the size of its op list.
type workloadDef struct {
	Name string
	Why  string
	// Ops is the frozen op-list length: a run executes the list in order
	// for the measured window, wrapping if it ever gets through.
	Ops int
	// Prefix is how many leading ops always run, whatever the window: the
	// exact counts (dist_per_query on the -seq workloads) and the answers
	// digest are taken over this prefix, so they do not depend on how many
	// ops a window fits.
	Prefix int
	// TraceOps is how many leading ops a traced run replays.
	TraceOps int
}

var workloads = []workloadDef{
	{Name: "protein-seq", Ops: 2000, Prefix: 800, TraceOps: 200,
		Why: "Paper fig. 8 setting, one call at a time: ~85% of time is the refnet filter, so dist/refnet/core-filter changes show; stream, serve, gateway idle."},
	{Name: "traj-erp-seq", Ops: 520, Prefix: 200, TraceOps: 60,
		Why: "Same layers the other way round: ERP verification dominates, so float-kernel and verifier changes show here and barely move protein-seq."},
	{Name: "protein-pool", Ops: 320, Prefix: 100, TraceOps: 30,
		Why: "Bursts of 16 through barrier, batch and Submit on a 2-worker QueryPool: batch engine and stream scheduler carry the difference from protein-seq."},
	{Name: "serve-mixed", Ops: 8000, Prefix: 2000, TraceOps: 800,
		Why: "Real subseqctl serve child, small index, reads beside appends and retires on one store: HTTP, admission, queueing and the write lock are a visible share."},
	{Name: "fleet-hotkeys", Ops: 8000, Prefix: 2000, TraceOps: 1000,
		Why: "Real 2x2 fleet behind the caching gateway, zipf hot keys, 1 write in 200: p50 is a cache hit, p95 a miss; cache, single-flight, scatter and merge show."},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scaled divides a workload's op counts for a -smoke run.
func (w workloadDef) scaled(div int) workloadDef {
	w.Ops = max(w.Ops/div, 4)
	w.Prefix = max(w.Prefix/div, 2)
	w.TraceOps = max(w.TraceOps/div, 3)
	return w
}
