package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	grb "github.com/grblas/grb"
)

// The traced run. The same seeded operations are replayed by one caller at
// every depth of the stack, from outside the program, and each call is a
// span. A layer's self-time is its depth's median minus the next depth's.
// The library's own counters are read around the calls; nothing is added to
// the program.

const (
	depthHTTP    = iota // client GET over loopback
	depthHandler        // Handler().ServeHTTP into a recorder, no socket
	depthRequest        // the handler's body through the public API, in a per-request context
	depthAlgo           // the lagraph and grb calls alone, in a long-lived context
	depthKernel         // the multiply kernels alone, on internal/sparse
	numDepths
)

// depthNames are the span names; depthLayers name the package whose cost a
// depth adds on top of the depth below it.
var (
	depthNames  = [numDepths]string{"http", "handler", "request-ctx", "algo", "kernel"}
	depthLayers = [numDepths]string{"serve", "serve", "grb", "grb", "internal/sparse"}
)

// depthFn runs operation op at one depth. tr and parent let a depth record
// the stages inside it; tr may be nil.
type depthFn func(op int, tr *tracer, parent int)

// ladder is what a workload offers the traced run.
type ladder struct {
	depths      [numDepths]depthFn // nil where the workload has no such depth
	noAdmission depthFn            // the handler depth against a zero-config server
	algoAlt     depthFn            // the algo depth in a context of altThreads threads,
	altThreads  int                // 1 where the algo depth runs at two threads, 2 where it runs at one
	healthz     func()             // one GET /healthz
	openRate    float64            // the open-loop phase's arrivals per second; 0 = none
	openPct     float64            // its tail percentile
	clients     int
	// finish adds the metrics only the workload can compute: result
	// introspection, stage rates, response sizes.
	finish func(tr *tracer, m map[string]float64)
}

// variant is one way of running the ladder's operations: a depth, or a
// depth under a changed condition (a sink on, one thread, no admission).
type variant struct {
	name, layer string
	fn          depthFn
	parent      int  // the variant whose span of the same op parents this one's; -1 = none
	spans       bool // record spans; false only for the pass that measures their cost
	stages      bool // let fn record the stages inside it
	on, off     func()
}

// variantResult is what a variant's calls measured: each call's duration and
// span, and the sums of what the calls cost and how the library routed them.
type variantResult struct {
	ms     []float64
	ids    []int
	c      cost
	routes counters
}

func (r variantResult) totalMs() float64 {
	sum := 0.0
	for _, v := range r.ms {
		sum += v
	}
	return sum
}

// runLadder replays ops 0..k-1, each op through every variant before the
// next op, so that a burst of interference on the host falls on all variants
// alike and the differences between them survive it. One unrecorded call per
// variant first lets lazy set-up finish. Cost and routing counters are read
// around each call, outside its span.
func runLadder(tr *tracer, variants []variant, k int) []variantResult {
	call := func(v variant, op int, t *tracer, parent int) (id int, ms float64) {
		if v.on != nil {
			v.on()
			defer v.off()
		}
		inner := t
		if !v.stages {
			inner = nil
		}
		return t.time(v.name, v.layer, op, parent, func(id int) { v.fn(op, inner, id) })
	}
	for _, v := range variants {
		call(v, 0, nil, 0)
	}
	res := make([]variantResult, len(variants))
	for op := 0; op < k; op++ {
		for vi, v := range variants {
			parent := 0
			if v.parent >= 0 {
				parent = res[v.parent].ids[op]
			}
			t := tr
			if !v.spans {
				t = nil
			}
			routes, usage := readCounters(), readUsage()
			id, ms := call(v, op, t, parent)
			c := readUsage().since(usage)
			r := &res[vi]
			r.ms, r.ids = append(r.ms, ms), append(r.ids, id)
			r.c = r.c.plus(c)
			r.routes = r.routes.plus(readCounters(), 1).plus(routes, -1)
		}
	}
	return res
}

// counters is a reading of the routing counters the library exposes.
type counters [numCounters]int64

const (
	cPush = iota
	cPull
	cMono
	cClosure
	cDense
	cHash
	cBlocked
	cTransposes
	cDegrades
	cScratch
	cSpan
	cWork
	numCounters
)

// routeMetrics are the counters reported per operation, exactly.
var routeMetrics = [...]struct {
	name    string
	counter int
}{
	{"grb.push_calls", cPush}, {"grb.pull_calls", cPull},
	{"grb.mono_kernels", cMono}, {"grb.closure_kernels", cClosure},
	{"grb.dense_ranges", cDense}, {"grb.hash_ranges", cHash},
	{"grb.blocked_ops", cBlocked}, {"grb.transposes", cTransposes},
	{"grb.budget_degrades", cDegrades},
}

func readCounters() (c counters) {
	c[cPush], c[cPull] = grb.DirectionCounts()
	c[cMono], c[cClosure] = grb.MonoKernelCounts()
	c[cDense], c[cHash] = grb.KernelCounts()
	c[cBlocked], _ = grb.BlockKernelCounts()
	c[cTransposes] = grb.TransposeCount()
	c[cDegrades], _ = grb.HardeningCounts()
	c[cScratch] = grb.KernelScratchBytes()
	c[cSpan], c[cWork] = grb.SpanFlops()
	return c
}

// plus returns c + sign·b.
func (c counters) plus(b counters, sign int64) counters {
	for i := range c {
		c[i] += sign * b[i]
	}
	return c
}

func runTraced(def workloadDef, seed int64, seconds float64, spansPath string) result {
	w := def.new(seed, def.sz)
	w.setup()
	defer w.close()
	w.prepare()
	ld := w.ladder()
	k := int(def.sz.ladderOps * seconds)
	if k < 8 {
		k = 8
	}
	kf := float64(k)
	tr := newTracer()
	m := map[string]float64{"bench.ladder_ops": kf}

	// The variants: the top depth without spans, every depth the workload
	// has, then the algo and handler depths under changed conditions.
	top := 0
	for ld.depths[top] == nil {
		top++
	}
	variants := []variant{{name: depthNames[top], layer: depthLayers[top], fn: ld.depths[top], parent: -1}}
	var at [numDepths]int // a depth's index in variants
	prev := -1
	for d, fn := range ld.depths {
		if fn == nil {
			continue
		}
		at[d] = len(variants)
		variants = append(variants, variant{name: depthNames[d], layer: depthLayers[d], fn: fn, parent: prev, spans: true, stages: true})
		prev = at[d]
	}
	add := func(name, layer string, fn depthFn, parent int, on, off func()) int {
		variants = append(variants, variant{name: name, layer: layer, fn: fn, parent: parent, spans: true, on: on, off: off})
		return len(variants) - 1
	}
	algoFn := ld.depths[depthAlgo]
	noAdm := -1
	if ld.noAdmission != nil {
		noAdm = add("handler-noadmission", "serve", ld.noAdmission, at[depthHTTP], nil, nil)
	}
	// The library's own sinks, on for one call at a time.
	grb.ResetMetrics()
	withMetrics := add("algo+metrics", "internal/obsv", algoFn, at[depthAlgo],
		func() { grb.EnableMetrics(true) }, func() { grb.EnableMetrics(false) })
	withTrace := add("algo+trace", "internal/obsv", algoFn, at[depthAlgo],
		func() { must(grb.TraceTo(io.Discard)) }, func() { must(grb.StopTrace()) })
	alt := add(fmt.Sprintf("algo-t%d", ld.altThreads), "internal/parallel", ld.algoAlt, at[depthAlgo], nil, nil)

	res := runLadder(tr, variants, k)
	var medians [numDepths]float64
	for d := range ld.depths {
		if ld.depths[d] != nil {
			medians[d] = median(res[at[d]].ms)
		}
	}
	self := selfTimes(medians[:])
	algo, topRes := res[at[depthAlgo]], res[at[top]]
	routes := algo.routes

	m["serve.http_self_us"] = self[depthHTTP] * 1e3
	m["serve.handler_self_us"] = self[depthHandler] * 1e3
	m["grb.context_self_us"] = self[depthRequest] * 1e3
	m["grb.op_self_us"] = self[depthAlgo] * 1e3
	m["sparse.kernel_us"] = medians[depthKernel] * 1e3
	m["grb.fixed_cost_share"] = ratio(self[depthAlgo], medians[depthAlgo])
	if ld.depths[depthHandler] != nil {
		m["serve.handler_allocs"] = (res[at[depthHandler]].c.mallocs - res[at[depthRequest]].c.mallocs) / kf
	}
	m["grb.allocs_per_query"] = algo.c.mallocs / kf
	m["grb.alloc_kb_per_query"] = algo.c.kb / kf
	// What the second thread buys and costs: the algo depth at one thread
	// against the same calls at two.
	t1, t2 := res[alt], algo
	if ld.altThreads == 2 {
		t1, t2 = algo, res[alt]
	}
	m["parallel.speedup_t2"] = ratio(median(t1.ms), median(t2.ms))
	m["parallel.cpu_over_wall"] = ratio(t2.c.cpuMs, t2.c.wallS*1e3)
	m["lagraph.op_p90_ms"] = percentile(sortedCopy(algo.ms), 90)
	m["bench.span_overhead_pct"] = 100 * ratio(medians[top]-median(res[0].ms), median(res[0].ms))

	for _, rm := range routeMetrics {
		m[rm.name] = float64(routes[rm.counter]) / kf
	}
	m["sparse.scratch_kb_per_op"] = float64(routes[cScratch]) / 1024 / kf
	m["sparse.span_over_work"] = ratio(float64(routes[cSpan]), float64(routes[cWork]))

	if noAdm >= 0 {
		m["serve.admission_self_us"] = (medians[depthHandler] - median(res[noAdm].ms)) * 1e3
	}

	// What only the metrics sink can give: events and sequence drains per
	// op, the time inside kernel events, their flops. The sink also saw the
	// variant's one unrecorded call, hence k+1.
	var ops, drains, kernelNs, flops float64
	for name, om := range grb.Metrics() {
		if strings.HasPrefix(name, "sequence(") {
			drains += float64(om.Count)
			continue
		}
		ops += float64(om.Count)
		kernelNs += float64(om.TotalNs)
		flops += float64(om.Flops)
	}
	calls := kf + 1
	kernelMs := kernelNs / 1e6 * kf / calls // inside kernel events over the k recorded calls
	m["grb.ops_per_query"] = ops / calls
	m["grb.drains_per_query"] = drains / calls
	m["sparse.flops_per_op"] = flops / calls
	m["sparse.mflops_s"] = ratio(flops, kernelNs/1e3)
	m["sparse.kernel_ns_share"] = ratio(kernelMs, topRes.totalMs())
	m["grb.outside_event_share"] = 1 - ratio(kernelMs, res[withMetrics].totalMs())
	m["obsv.metrics_overhead_pct"] = 100 * ratio(median(res[withMetrics].ms)-medians[depthAlgo], medians[top])
	m["obsv.trace_overhead_pct"] = 100 * ratio(median(res[withTrace].ms)-medians[depthAlgo], medians[top])

	var notes []string
	if ld.healthz != nil {
		const pings = 200
		ms := make([]float64, pings)
		for i := range ms {
			_, ms[i] = tr.time("healthz", "serve", -1, 0, func(int) { ld.healthz() })
		}
		m["serve.healthz_us"] = median(ms) * 1e3
	}
	if ld.openRate > 0 {
		// The open loop lives here and not among the end-to-end metrics: a
		// partly idle process measures how long the host takes to wake a
		// vCPU as much as it measures the program (see the README).
		t := w.tally()
		shed0, failed0 := t.shed.Load(), t.failed.Load()
		dur := time.Duration(seconds * 0.3 * float64(time.Second))
		lat, lag := openPhase(w, ld.clients, ld.openRate, dur, k)
		sorted := sortedCopy(lat)
		m["serve.open_p50_ms"] = percentile(sorted, 50)
		m["serve.open_tail_ms"] = percentile(sorted, ld.openPct)
		m["serve.shed_count"] = float64(t.shed.Load() - shed0)
		m["serve.error_count"] = float64(t.failed.Load() - failed0)
		m["serve.gen_lag_p99_us"] = percentile(sortedCopy(lag), 99)
		notes = append(notes, fmt.Sprintf("open loop: %d arrivals at %g/s over %d connections; serve.open_tail_ms is p%g (%d samples beyond)",
			len(lat), ld.openRate, ld.clients, ld.openPct, samplesBeyond(len(lat), ld.openPct)))
	}
	w.check()
	ld.finish(tr, m)

	notes = append(notes, w.describe(), fmt.Sprintf("ladder: %d ops through every depth and variant, %d spans", k, len(tr.spans)))
	for d, name := range depthNames {
		if ld.depths[d] != nil {
			notes = append(notes, fmt.Sprintf("depth %-12s median %10.4f ms  self %10.4f ms", name, medians[d], self[d]))
		}
	}
	if spansPath != "" {
		must(tr.writeFile(spansPath))
		notes = append(notes, "spans written to "+spansPath)
	}
	t := w.tally()
	return result{workload: def.Name, metrics: m, notes: notes,
		attempted: t.attempted.Load(), failed: t.bad(), firstErr: t.firstErr}
}

// spanMedianMs is the median duration of the spans called name, 0 if none.
func spanMedianMs(tr *tracer, name string) float64 { return median(tr.durationsMs(name)) }
