package obsv

import "sync/atomic"

// Counter is one kernel-routing counter: its index into the counter bank.
// internal/sparse increments them at its routing decisions and the grb layer
// at the two it makes above the kernels; every sink names them from
// counterNames, so a counter has one name everywhere.
type Counter int

// The kernel counters. A new one is a constant here, its name in
// counterNames and its increment; every sink picks it up from the table.
const (
	DenseRanges Counter = iota
	HashRanges
	ScratchBytes
	PushCalls
	PullCalls
	TransposeMats
	BudgetDegrades
	PanicsRecovered
	MonoKernels
	ClosureFallbacks
	FormatConversions
	SpanFlops
	WorkFlops
	numCounters
)

// counterNames is the one table of counter names, the key each counter has
// in the event deltas, the per-op metrics, the trace args and /metrics.
var counterNames = [numCounters]string{
	DenseRanges:       "dense_ranges",               // multiply row ranges served by the dense SPA
	HashRanges:        "hash_ranges",                // multiply row ranges served by the hash SPA
	ScratchBytes:      "scratch_bytes",              // accumulator scratch allocated by kernels
	PushCalls:         "push_calls",                 // matrix-vector products served by the push kernel
	PullCalls:         "pull_calls",                 // matrix-vector products served by the pull kernel
	TransposeMats:     "transpose_materializations", // transpose cache misses
	BudgetDegrades:    "budget_degrades",            // budget-forced route changes (hash accumulator, hash mask predicate, push→pull flip)
	PanicsRecovered:   "panics_recovered",           // kernel panics recovered into parked §V errors
	MonoKernels:       "mono_kernels",               // multiply calls served by a monomorphized family loop
	ClosureFallbacks:  "closure_fallbacks",          // multiply calls that ran the generic closure loops
	FormatConversions: "format_conversions",         // sparse→bitmap/dense view materializations (cache misses)
	SpanFlops:         "span_flops",                 // modeled parallel span (critical-path flops) of SpGEMM calls
	WorkFlops:         "work_flops",                 // total flops of span-instrumented SpGEMM calls
}

// Counts is one reading of every kernel counter, indexed by Counter.
type Counts [numCounters]int64

// named returns the counts by name, leaving out the zero ones unless all.
func (c *Counts) named(all bool) map[string]int64 {
	out := make(map[string]int64, len(c))
	for i, v := range c {
		if v != 0 || all {
			out[counterNames[i]] = v
		}
	}
	return out
}

// bank holds one atomic cell per kernel counter.
type bank [numCounters]atomic.Int64

// The counters live in one bank behind an atomic pointer, and a reset swaps
// in a fresh bank, so a reader never observes a torn group (some counters
// reset, others not). Increments racing a reset may land in the retired bank
// and be dropped with it; that window is inherent to any reset of
// concurrently written counters.
var counters atomic.Pointer[bank]

func init() { counters.Store(new(bank)) }

// Add adds d to the counter: one atomic pointer load plus one atomic add,
// cheap enough for per-row-range hot paths.
func (c Counter) Add(d int64) { counters.Load()[c].Add(d) }

// Load returns the counter's current value.
func (c Counter) Load() int64 { return counters.Load()[c].Load() }

// readCounters reads every counter from one bank: the values are mutually
// consistent with respect to ResetCounters (all pre- or all post-reset).
func readCounters() Counts { return counters.Load().read() }

// ResetCounters zeroes every counter at once and returns the retired bank's
// final values.
func ResetCounters() Counts { return counters.Swap(new(bank)).read() }

func (b *bank) read() (out Counts) {
	for i := range b {
		out[i] = b[i].Load()
	}
	return out
}
