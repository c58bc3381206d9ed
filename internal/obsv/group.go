package obsv

import "sync/atomic"

// Group is a named set of int64 counters with group-atomic snapshot and
// reset: the counters live in one bank behind an atomic pointer, and Reset
// swaps in a fresh bank, so a reader never observes a torn group (some
// counters reset, others not) — the race the old per-variable Store(0) reset
// in internal/sparse had. Increments racing a Reset may land in the retired
// bank and be dropped with it; that window is inherent to any reset of
// concurrently-written counters and is the same as before.
type Group struct {
	names []string
	bank  atomic.Pointer[counterBank]
}

type counterBank struct {
	c []atomic.Int64
}

// NewGroup creates a group with one counter per name.
func NewGroup(names ...string) *Group {
	g := &Group{names: names}
	g.bank.Store(&counterBank{c: make([]atomic.Int64, len(names))})
	return g
}

// Add atomically adds d to counter i. One atomic pointer load plus one
// atomic add — cheap enough for per-row-range hot paths.
func (g *Group) Add(i int, d int64) { g.bank.Load().c[i].Add(d) }

// Get returns the current value of counter i.
func (g *Group) Get(i int) int64 { return g.bank.Load().c[i].Load() }

// Names returns the counter names, index-aligned with Snapshot.
func (g *Group) Names() []string { return g.names }

// Snapshot returns all counters read from one bank: the values are mutually
// consistent with respect to Reset (all pre- or all post-reset).
func (g *Group) Snapshot() []int64 {
	b := g.bank.Load()
	out := make([]int64, len(b.c))
	for i := range b.c {
		out[i] = b.c[i].Load()
	}
	return out
}

// Reset atomically replaces the bank with a zeroed one and returns the
// retired bank's final values.
func (g *Group) Reset() []int64 {
	fresh := &counterBank{c: make([]atomic.Int64, len(g.names))}
	old := g.bank.Swap(fresh)
	out := make([]int64, len(old.c))
	for i := range old.c {
		out[i] = old.c[i].Load()
	}
	return out
}

// values reads the bank into a fixed array without allocating; sized for the
// kernel counter group, which is the only group on the Begin/End hot path.
func (g *Group) values() [kcLen]int64 {
	var out [kcLen]int64
	b := g.bank.Load()
	for i := 0; i < len(b.c) && i < kcLen; i++ {
		out[i] = b.c[i].Load()
	}
	return out
}

// Indices of the kernel-routing counter group. internal/sparse increments
// these at its routing decisions; the grb compatibility shims
// (KernelCounts, DirectionCounts, TransposeCount, KernelScratchBytes,
// ResetKernelCounts) read and reset them through internal/sparse.
const (
	KCDenseRanges       = iota // multiply row ranges served by the dense SPA
	KCHashRanges               // multiply row ranges served by the hash SPA
	KCScratchBytes             // accumulator scratch allocated by kernels
	KCPushCalls                // matrix-vector products served by the push kernel
	KCPullCalls                // matrix-vector products served by the pull kernel
	KCTransposeMats            // transpose materializations (cache misses)
	KCBudgetDegrades           // budget-forced route changes (hash accumulator, hash mask predicate, push→pull flip)
	KCPanicsRecovered          // kernel panics recovered into parked §V errors
	KCMonoKernels              // multiply calls served by a monomorphized semiring kernel
	KCClosureFallbacks         // multiply calls that fell back to the generic closure kernel
	KCFormatConversions        // sparse→bitmap/dense block-format materializations (cache misses)
	KCSpanFlops                // modeled parallel span (critical-path flops) of SpGEMM calls
	KCWorkFlops                // total flops of span-instrumented SpGEMM calls
	kcLen
)

// KernelCounters is the kernel-routing counter group, shared between
// internal/sparse (writer) and the sinks (readers).
var KernelCounters = NewGroup(
	"dense_ranges",
	"hash_ranges",
	"scratch_bytes",
	"push_calls",
	"pull_calls",
	"transpose_materializations",
	"budget_degrades",
	"panics_recovered",
	"mono_kernels",
	"closure_fallbacks",
	"format_conversions",
	"span_flops",
	"work_flops",
)
