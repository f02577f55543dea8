package main

// metricDef is one metric the benchmark reports. BENCHMARK.json at the
// module root lists the same names, units, directions and bounds;
// TestMetricsMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// on lists the workloads that exercise a per-layer metric's layer.
	// Every traced run prints every per-layer metric; on the other
	// workloads the metric reads 0, because the workload bypasses the layer.
	on []string
	// moves names the end-to-end metrics, and the workloads, a change in
	// this per-layer metric should move.
	moves string
}

const (
	fbDayName   = "fb-day"
	faultedName = "faulted-report"
	engineName  = "engine-mix"
)

var (
	allWorkloads = []string{fbDayName, faultedName, engineName}
	simWorkloads = []string{fbDayName, faultedName}
	fbDayOnly    = []string{fbDayName}
	faultedOnly  = []string{faultedName}
	engineOnly   = []string{engineName}
)

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Each is meaningful, and never 0, on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "jobs_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.1},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "ok_frac", unit: "frac", better: "higher", bound: 0.001},
}

const (
	simMoves     = "op_p50_ms and jobs_per_s on fb-day and faulted-report; no change on engine-mix"
	fbMoves      = "op_p50_ms on fb-day"
	faultedMoves = "op_p50_ms on faulted-report"
	tailMoves    = "the sim-time tail (sim_hybrid_p99_s) on faulted-report, and through it op_p50_ms"
	engineMoves  = "the app's MB/s and op_p50_ms on engine-mix only"
	runtimeMoves = "op_p50_ms, alloc_mb_per_op and peak_rss_mb on fb-day and faulted-report"
)

// perLayer are the metrics of single layers, measured only in the traced
// run. The outcome metrics at the end (sim-time results and per-app engine
// throughput) belong to one workload each, so they cannot be end-to-end
// metrics, which every workload must report.
var perLayer = []metricDef{
	{name: "simclock.events", unit: "count", better: "lower", on: simWorkloads, moves: simMoves},
	{name: "simclock.ns_per_event", unit: "ns", better: "lower", on: simWorkloads, moves: simMoves},

	{name: "mapreduce.replay_ms.hybrid", unit: "ms", better: "lower", on: fbDayOnly, moves: simMoves},
	{name: "mapreduce.replay_ms.thadoop", unit: "ms", better: "lower", on: simWorkloads, moves: simMoves},
	{name: "mapreduce.replay_ms.rhadoop", unit: "ms", better: "lower", on: simWorkloads, moves: simMoves},
	{name: "mapreduce.replay_ms.hybrid_fa", unit: "ms", better: "lower", on: faultedOnly, moves: simMoves},
	{name: "mapreduce.replay_ms.hybrid_fa_bl", unit: "ms", better: "lower", on: faultedOnly, moves: simMoves},
	{name: "mapreduce.replay_ms.hybrid_static", unit: "ms", better: "lower", on: faultedOnly, moves: simMoves},
	{name: "mapreduce.replay_ms.hybrid_clean", unit: "ms", better: "lower", on: faultedOnly, moves: simMoves},
	{name: "mapreduce.tasks", unit: "count", better: "lower", on: simWorkloads, moves: simMoves},
	{name: "mapreduce.ns_per_task", unit: "ns", better: "lower", on: simWorkloads, moves: simMoves},
	{name: "mapreduce.plan_ns_per_job", unit: "ns", better: "lower", on: simWorkloads, moves: fbMoves},
	{name: "mapreduce.task_retries", unit: "count", better: "lower", on: faultedOnly, moves: tailMoves},
	{name: "mapreduce.useful_task_ratio", unit: "ratio", better: "higher", on: faultedOnly, moves: tailMoves},
	{name: "mapreduce.invariant_overhead_pct", unit: "%", better: "lower", on: faultedOnly, moves: faultedMoves},
	{name: "mapreduce.invariant_violations", unit: "count", better: "lower", on: faultedOnly, moves: "nothing: it must stay 0"},

	{name: "core.route_ns_per_job", unit: "ns", better: "lower", on: simWorkloads, moves: fbMoves},
	{name: "core.up_frac", unit: "frac", better: "higher", on: simWorkloads, moves: fbMoves},
	{name: "core.reroutes", unit: "count", better: "lower", on: faultedOnly, moves: tailMoves},
	{name: "core.job_retries", unit: "count", better: "lower", on: faultedOnly, moves: tailMoves},

	{name: "sweep.cache_hits", unit: "count", better: "higher", on: faultedOnly, moves: faultedMoves},
	{name: "sweep.cache_misses", unit: "count", better: "lower", on: faultedOnly, moves: faultedMoves},
	{name: "sweep.hit_ratio", unit: "ratio", better: "higher", on: faultedOnly, moves: faultedMoves},

	{name: "obs.overhead_pct", unit: "%", better: "lower", on: faultedOnly, moves: "op_p50_ms and alloc_mb_per_op on faulted-report; no change on fb-day"},
	{name: "obs.spans", unit: "count", better: "lower", on: faultedOnly, moves: "alloc_mb_per_op on faulted-report"},
	{name: "obs.audit_records", unit: "count", better: "lower", on: faultedOnly, moves: "alloc_mb_per_op on faulted-report"},
	{name: "obs.export_ms", unit: "ms", better: "lower", on: faultedOnly, moves: faultedMoves},
	{name: "obs.export_mb", unit: "MB", better: "lower", on: faultedOnly, moves: "alloc_mb_per_op on faulted-report"},

	{name: "figures.self_ms", unit: "ms", better: "lower", on: simWorkloads, moves: "op_p50_ms and alloc_mb_per_op on fb-day"},
	{name: "figures.render_ms", unit: "ms", better: "lower", on: simWorkloads, moves: "op_p50_ms and alloc_mb_per_op on fb-day"},

	{name: "workload.gen_ms", unit: "ms", better: "lower", on: simWorkloads, moves: "setup_s on fb-day and faulted-report"},
	{name: "corpus.gen_ms", unit: "ms", better: "lower", on: engineOnly, moves: "setup_s on engine-mix"},

	{name: "engine.map_mb_s.wordcount", unit: "MB/s", better: "higher", on: engineOnly, moves: engineMoves},
	{name: "engine.shuffle_mb_s.wordcount", unit: "MB/s", better: "higher", on: engineOnly, moves: engineMoves},
	{name: "engine.reduce_mb_s.wordcount", unit: "MB/s", better: "higher", on: engineOnly, moves: engineMoves},
	{name: "engine.other_ms.wordcount", unit: "ms", better: "lower", on: engineOnly, moves: engineMoves},
	{name: "engine.shuffle_input_ratio.wordcount", unit: "ratio", better: "lower", on: engineOnly, moves: engineMoves},
	{name: "engine.spills.wordcount", unit: "count", better: "lower", on: engineOnly, moves: engineMoves},
	{name: "engine.map_mb_s.grep", unit: "MB/s", better: "higher", on: engineOnly, moves: engineMoves},
	{name: "engine.shuffle_mb_s.grep", unit: "MB/s", better: "higher", on: engineOnly, moves: engineMoves},
	{name: "engine.reduce_mb_s.grep", unit: "MB/s", better: "higher", on: engineOnly, moves: engineMoves},
	{name: "engine.other_ms.grep", unit: "ms", better: "lower", on: engineOnly, moves: engineMoves},
	{name: "engine.shuffle_input_ratio.grep", unit: "ratio", better: "lower", on: engineOnly, moves: engineMoves},
	{name: "engine.spills.grep", unit: "count", better: "lower", on: engineOnly, moves: engineMoves},
	{name: "engine.map_mb_s.sort", unit: "MB/s", better: "higher", on: engineOnly, moves: engineMoves},
	{name: "engine.shuffle_mb_s.sort", unit: "MB/s", better: "higher", on: engineOnly, moves: engineMoves},
	{name: "engine.reduce_mb_s.sort", unit: "MB/s", better: "higher", on: engineOnly, moves: engineMoves},
	{name: "engine.other_ms.sort", unit: "ms", better: "lower", on: engineOnly, moves: engineMoves},
	{name: "engine.shuffle_input_ratio.sort", unit: "ratio", better: "lower", on: engineOnly, moves: engineMoves},
	{name: "engine.spills.sort", unit: "count", better: "lower", on: engineOnly, moves: engineMoves},
	{name: "engine.store_write_mb_s", unit: "MB/s", better: "higher", on: engineOnly, moves: "dfsio_mb_s on engine-mix only"},
	{name: "engine.store_read_mb_s", unit: "MB/s", better: "higher", on: engineOnly, moves: "dfsio_mb_s on engine-mix only"},

	{name: "runtime.gc_cpu_frac", unit: "frac", better: "lower", on: allWorkloads, moves: runtimeMoves},
	{name: "runtime.allocs_per_op", unit: "count", better: "lower", on: allWorkloads, moves: runtimeMoves},
	{name: "runtime.gc_cycles_per_op", unit: "count", better: "lower", on: allWorkloads, moves: runtimeMoves},

	{name: "trace.overhead_pct", unit: "%", better: "lower", on: allWorkloads, moves: "nothing: it is the cost of the traced run itself"},

	{name: "sim_hybrid_p99_s", unit: "sim_s", better: "lower", on: simWorkloads, moves: "nothing on a performance change: simulated results are pinned by the digests"},
	{name: "fig10a_err_pct", unit: "%", better: "lower", on: fbDayOnly, moves: "nothing on a performance change: simulated results are pinned by the digests"},
	{name: "wordcount_mb_s", unit: "MB/s", better: "higher", on: engineOnly, moves: "op_p50_ms and jobs_per_s on engine-mix"},
	{name: "grep_mb_s", unit: "MB/s", better: "higher", on: engineOnly, moves: "op_p50_ms and jobs_per_s on engine-mix"},
	{name: "sort_mb_s", unit: "MB/s", better: "higher", on: engineOnly, moves: "op_p50_ms and jobs_per_s on engine-mix"},
	{name: "dfsio_mb_s", unit: "MB/s", better: "higher", on: engineOnly, moves: "op_p50_ms and jobs_per_s on engine-mix"},
}

// measures reports whether the workload exercises the metric's layer.
func (m metricDef) measures(workload string) bool {
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}
