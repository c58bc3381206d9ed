package sparse

import "github.com/grblas/grb/internal/obsv"

// The kernel-routing counters live in obsv.KernelCounters, one shared group
// with atomic snapshot/reset semantics, so observability sinks and the grb
// compatibility shims read the same numbers the kernels write. kcounter keeps
// the kernels' call sites (`denseRanges.Add(1)`) unchanged: it is an index
// into the group wearing the old atomic.Int64 method set.
type kcounter int

// Add adds d to the counter's slot in the shared group.
func (k kcounter) Add(d int64) { obsv.KernelCounters.Add(int(k), d) }

// Load returns the counter's current value.
func (k kcounter) Load() int64 { return obsv.KernelCounters.Get(int(k)) }

// denseRanges/hashRanges count how many row ranges (SpGEMM) or whole calls
// (SpMV gather) each accumulator served since the last reset; scratchBytes
// totals the accumulator scratch (SPA buffers, stamp arrays, hash tables)
// those ranges allocated. pushCalls/pullCalls count matrix-vector products by
// the kernel that served them; transposeMats counts transpose
// materializations (cache misses). Benchmarks, the differential tests, and
// the obsv sinks read them to observe adaptive selection.
var (
	denseRanges     = kcounter(obsv.KCDenseRanges)
	hashRanges      = kcounter(obsv.KCHashRanges)
	scratchBytes    = kcounter(obsv.KCScratchBytes)
	pushCalls       = kcounter(obsv.KCPushCalls)
	pullCalls       = kcounter(obsv.KCPullCalls)
	transposeMats   = kcounter(obsv.KCTransposeMats)
	budgetDegrades  = kcounter(obsv.KCBudgetDegrades)
	panicsRecovered = kcounter(obsv.KCPanicsRecovered)

	monoKernels       = kcounter(obsv.KCMonoKernels)
	closureFallbacks  = kcounter(obsv.KCClosureFallbacks)
	formatConversions = kcounter(obsv.KCFormatConversions)

	// spanFlops/workFlops accumulate each SpGEMM call's modeled parallel
	// span and total flops (see noteSpan).
	spanFlops = kcounter(obsv.KCSpanFlops)
	workFlops = kcounter(obsv.KCWorkFlops)
)

// KernelCounts returns the number of row ranges served by the dense and hash
// accumulators since the last ResetKernelCounts.
func KernelCounts() (dense, hash int64) {
	return denseRanges.Load(), hashRanges.Load()
}

// ScratchBytes returns the total accumulator scratch allocated since the
// last ResetKernelCounts.
func ScratchBytes() int64 { return scratchBytes.Load() }

// DirectionCounts returns the number of matrix-vector products served by the
// push (VxM scatter) and pull (SpMV gather) kernels since the last
// ResetKernelCounts.
func DirectionCounts() (push, pull int64) {
	return pushCalls.Load(), pullCalls.Load()
}

// TransposeCount returns the number of transpose materializations since the
// last ResetKernelCounts.
func TransposeCount() int64 { return transposeMats.Load() }

// HardeningCounts returns the number of budget-forced route degradations and
// recovered kernel panics since the last ResetKernelCounts.
func HardeningCounts() (degrades, panics int64) {
	return budgetDegrades.Load(), panicsRecovered.Load()
}

// MonoCounts returns the number of multiply calls served by a monomorphized
// semiring kernel and the number that fell back to the generic closure
// kernel since the last ResetKernelCounts. A matrix product counts as mono
// when at least one of its row ranges ran a family loop — hash and mask-first
// ranges evaluate closures, so a product made only of those is a closure
// call whatever its semiring.
func MonoCounts() (mono, closure int64) {
	return monoKernels.Load(), closureFallbacks.Load()
}

// FormatConversionCount returns the number of sparse→bitmap/dense
// block-format materializations (cache misses, not cached-view hits) since
// the last ResetKernelCounts.
func FormatConversionCount() int64 { return formatConversions.Load() }

// NotePanicRecovered increments the recovered-panic counter; the grb layer
// calls it when a sequence-step recovery (outside the Ex kernels' own guard)
// converts a panic into a parked error.
func NotePanicRecovered() { panicsRecovered.Add(1) }

// NoteBudgetDegrade increments the degradation counter; the grb layer calls
// it when a route change made above the kernels (push→pull direction flip)
// keeps an operation inside its memory budget.
func NoteBudgetDegrade() { budgetDegrades.Add(1) }

// noteSpan accumulates one SpGEMM call's modeled parallel span (the
// makespan, in flops, of its partition greedily list-scheduled over its
// worker count) and its total flops. The ratio work/span is the plan's
// modeled parallel speedup — a machine-independent load-balance metric,
// immune to the host's real core count.
func noteSpan(span, work int64) {
	spanFlops.Add(span)
	workFlops.Add(work)
}

// SpanFlops returns the accumulated modeled span and total flops of the
// span-instrumented SpGEMM calls since the last ResetKernelCounts.
func SpanFlops() (span, work int64) {
	return spanFlops.Load(), workFlops.Load()
}

// modeledSpan returns the makespan of greedy list scheduling of the given
// per-unit flop counts over `workers` equal-speed workers: each unit, in
// order, goes to the least-loaded worker. For the one-range-per-worker
// partition the kernels use this reduces to the heaviest range.
// Deterministic, so bench gates built on it are noise-free.
func modeledSpan(units []int64, workers int) int64 {
	if workers < 1 {
		workers = 1
	}
	load := make([]int64, workers)
	for _, f := range units {
		mi := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[mi] {
				mi = w
			}
		}
		load[mi] += f
	}
	var span int64
	for _, l := range load {
		if l > span {
			span = l
		}
	}
	return span
}

// ResetKernelCounts zeroes the selection and scratch counters, the push/pull
// routing counters, the transpose-materialization counter and the span
// telemetry — as a group, atomically: the backing bank is swapped in one
// step, so a concurrent reader can never observe some counters reset and
// others not (the torn-group race the old per-variable Store(0) reset
// allowed).
func ResetKernelCounts() { obsv.KernelCounters.Reset() }

// notePartSpan records the span of a row-partitioned SpGEMM: parts is
// the BalancedRanges boundary list and fptr the per-row flop prefix, so each
// range's flops are fptr deltas and the total is fptr's last entry.
func notePartSpan(parts []int, fptr []int, workers int) {
	units := make([]int64, len(parts)-1)
	for p := range units {
		units[p] = int64(fptr[parts[p+1]] - fptr[parts[p]])
	}
	noteSpan(modeledSpan(units, workers), int64(fptr[len(fptr)-1]))
}

// SpGEMMFlopsTotal returns the total flop upper bound of A·B — the sum the
// symbolic pass (SpGEMMFlops) would prefix — without allocating the prefix
// array. The obsv layer calls it, only when a sink is active, to stamp MxM
// events with their call-time flop estimate.
func SpGEMMFlopsTotal[A, B any](a *CSR[A], b *CSR[B]) int64 {
	var f int64
	for _, k := range a.Ind {
		f += int64(b.Ptr[k+1] - b.Ptr[k])
	}
	return f
}
