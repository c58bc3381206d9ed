package main

// This file names every workload and every metric. BENCHMARK.json at the
// root of the repository repeats the names, units, directions and bounds;
// TestSpecMatchesBenchmarkJSON keeps the two in step. Later performance
// claims name one metric and one workload from these tables, so a rename
// here is an interface change.

// metricDef is one named metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
}

// perLayer lists the traced run's metrics, grouped by the package (layer)
// whose cost each one isolates. A workload that bypasses a layer reports 0
// for that layer's metrics.
var perLayer = []metricDef{
	// serve: HTTP, admission, JSON.
	{"serve.http_self_us", "us", "lower", 0},
	{"serve.healthz_us", "us", "lower", 0},
	{"serve.handler_self_us", "us", "lower", 0},
	{"serve.handler_allocs", "count", "lower", 0},
	{"serve.response_kb", "KB", "lower", 0},
	{"serve.admission_self_us", "us", "lower", 0},
	{"serve.open_p50_ms", "ms", "lower", 0},
	{"serve.open_tail_ms", "ms", "lower", 0},
	{"serve.shed_count", "count", "lower", 0},
	{"serve.error_count", "count", "lower", 0},
	{"serve.gen_lag_p99_us", "us", "lower", 0},
	// grb: contexts, objects, deferred sequences, routing.
	{"grb.context_self_us", "us", "lower", 0},
	{"grb.mem_peak_kb", "KB", "lower", 0},
	{"grb.op_self_us", "us", "lower", 0},
	{"grb.fixed_cost_share", "ratio", "lower", 0},
	{"grb.outside_event_share", "ratio", "lower", 0},
	{"grb.ops_per_query", "count", "lower", 0},
	{"grb.drains_per_query", "count", "lower", 0},
	{"grb.allocs_per_query", "count", "lower", 0},
	{"grb.alloc_kb_per_query", "KB", "lower", 0},
	{"grb.push_calls", "count", "higher", 0},
	{"grb.pull_calls", "count", "higher", 0},
	{"grb.mono_kernels", "count", "higher", 0},
	{"grb.closure_kernels", "count", "lower", 0},
	{"grb.dense_ranges", "count", "higher", 0},
	{"grb.hash_ranges", "count", "higher", 0},
	{"grb.blocked_ops", "count", "higher", 0},
	{"grb.transposes", "count", "lower", 0},
	{"grb.budget_degrades", "count", "lower", 0},
	{"grb.build_medges_s", "Medges/s", "higher", 0},
	{"grb.merge_ms", "ms", "lower", 0},
	{"grb.transpose_ms", "ms", "lower", 0},
	{"grb.serialize_mb_s", "MB/s", "higher", 0},
	{"grb.deserialize_mb_s", "MB/s", "higher", 0},
	{"grb.export_ms", "ms", "lower", 0},
	{"grb.mxm_ms", "ms", "lower", 0},
	// lagraph: one public call each.
	{"lagraph.bfs_ms", "ms", "lower", 0},
	{"lagraph.sssp_ms", "ms", "lower", 0},
	{"lagraph.pagerank_ms", "ms", "lower", 0},
	{"lagraph.ego_ms", "ms", "lower", 0},
	{"lagraph.triangles_ms", "ms", "lower", 0},
	{"lagraph.op_p90_ms", "ms", "lower", 0},
	{"lagraph.bfs_levels", "count", "lower", 0},
	{"lagraph.pagerank_iters", "count", "lower", 0},
	// internal/sparse: the kernels.
	{"sparse.kernel_us", "us", "lower", 0},
	{"sparse.kernel_ns_share", "ratio", "higher", 0},
	{"sparse.flops_per_op", "count", "lower", 0},
	{"sparse.mflops_s", "Mflop/s", "higher", 0},
	{"sparse.scratch_kb_per_op", "KB", "lower", 0},
	{"sparse.span_over_work", "ratio", "lower", 0},
	// internal/parallel: what the second thread buys and costs.
	{"parallel.speedup_t2", "x", "higher", 0},
	{"parallel.cpu_over_wall", "ratio", "lower", 0},
	// internal/obsv: cost of the library's own sinks.
	{"obsv.metrics_overhead_pct", "%", "lower", 0},
	{"obsv.trace_overhead_pct", "%", "lower", 0},
	// mtx, gen: text parse and generation.
	{"mtx.read_mb_s", "MB/s", "higher", 0},
	{"mtx.allocs_per_edge", "count", "lower", 0},
	{"gen.rmat_medges_s", "Medges/s", "higher", 0},
	// The benchmark's own spans.
	{"bench.span_overhead_pct", "%", "lower", 0},
	{"bench.ladder_ops", "count", "higher", 0},
}

// sizing fixes a workload's inputs and load. The production values are in
// workloads below; the tests shrink them.
type sizing struct {
	scale     int     // R-MAT scale of the main graph
	scale2    int     // R-MAT scale of the A·A operand (spgemm-mid)
	setups    int     // set-up repetitions; setup_s is the typical one
	distinct  int     // distinct operations in the schedule, which the closed loop cycles through
	cpuClock  bool    // operations only compute on the calling thread: time them on its CPU clock
	yardIters int     // yardstick iterations before each operation, about 4 % of its time
	openConns int     // connections of the traced run's open-loop phase
	openRate  float64 // its arrivals per second; 0 = no open-loop phase
	openPct   float64 // the open-loop latency percentile reported beside its median
	checkEach int     // every checkEach-th result is kept for the oracles,
	maxKept   int     // until maxKept are held
	ladderOps float64 // traced-run ops per second of --seconds
	setElems  int     // SetElement calls per ingest op
}

type workloadDef struct {
	Name string
	Why  string
	sz   sizing
	new  func(seed int64, sz sizing) workload
}

// Every workload is a closed loop of one caller for --seconds (25 in
// BENCHMARK.json) that cycles through `distinct` seeded operations, so that
// each is repeated: about 16 times on serve-small, 9 on traverse-large. The
// timings are taken per distinct operation from its repeats (typicalPerOp).
// spgemm-mid and ingest repeat one operation, about 95 and 350 times.
var workloads = []workloadDef{
	{
		Name: "serve-small",
		Why:  "rmat-10 behind serve over loopback HTTP, admission on, bfs/sssp/ego/pagerank mix: fixed per-request cost dominates, serve and grb do the work, internal/sparse little",
		sz: sizing{scale: 10, setups: 15, distinct: 1000, yardIters: 20_000, openConns: 2, openRate: 400, openPct: 99,
			checkEach: 50, maxKept: 16, ladderOps: 20},
		new: newServeSmall,
	},
	{
		Name: "traverse-large",
		Why:  "library only, rmat-16, BFS+SSSP+10-iteration PageRank per op: the SpMV/VxM family, where internal/sparse does nearly all the work and serve none",
		sz: sizing{scale: 16, setups: 3, distinct: 16, cpuClock: true, yardIters: 1_000_000,
			checkEach: 10, maxKept: 4, ladderOps: 0.6},
		new: newTraverse,
	},
	{
		Name: "spgemm-mid",
		Why:  "library only, masked plus-pair triangle count on rmat-14 plus unmasked plus-times A*A on rmat-11: the SpGEMM family, which no other workload runs",
		sz: sizing{scale: 14, scale2: 11, setups: 9, distinct: 1, cpuClock: true, yardIters: 1_000_000,
			ladderOps: 0.5},
		new: newSpGEMM,
	},
	{
		Name: "ingest",
		Why:  "mtx read, build with dup, 2000 setElement merges, transpose, serialize, deserialize, export of directed rmat-14: the write path, which bounds every other workload's setup_s",
		sz: sizing{scale: 14, setups: 9, distinct: 1, cpuClock: true, yardIters: 1_000_000,
			checkEach: 10, maxKept: 2, ladderOps: 1.25, setElems: 2000},
		new: newIngest,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
