package grb

import "github.com/grblas/grb/internal/sparse"

// Kernel routing is decided per operation by the Descriptor pins (AxB, Dir,
// Spec) or automatically from operand statistics (see DESIGN.md, "Kernel
// selection") — there is no process-wide routing state. This file holds the
// two descriptor→substrate mappings and the read-only counter accessors
// benchmarks and tests observe the routing with.

// kernelHint maps the descriptor's AxB method onto the substrate hint.
func kernelHint(m AxBMethod) sparse.Kernel {
	switch m {
	case AxBDenseSPA:
		return sparse.KernelDense
	case AxBHashSPA:
		return sparse.KernelHash
	case AxBDefault:
	}
	return sparse.KernelAuto
}

// specRoute maps the descriptor's SpecMode and a semiring's constructor tag
// onto the substrate's (Semi, Spec) pair. SpecGeneric erases the tag so the
// substrate cannot specialize at all; the other modes pass the tag through
// with the corresponding pin. The descriptor pin always wins over the tag —
// the first level of the routing decision tree (descriptor pin > operand
// density > semiring table).
func specRoute(m SpecMode, semi sparse.Semi) (sparse.Semi, sparse.Spec) {
	switch m {
	case SpecGeneric:
		return sparse.SemiGeneric, sparse.SpecGeneric
	case SpecMono:
		return semi, sparse.SpecMono
	case SpecAuto:
	}
	return semi, sparse.SpecAuto
}

// BlockKernelCounts always reports 0, 0: there is no 2D-blocked engine — the
// multiplies have one partitioning scheme, flop-balanced 1D row ranges
// (DESIGN.md, "Why there is no blocked engine"). The accessor stays because
// the repo benchmark reads it for its grb.blocked_ops counter.
func BlockKernelCounts() (ops, tasks int64) { return 0, 0 }

// SpanFlops reports the accumulated modeled parallel span (the makespan, in
// flops, of each SpGEMM call's partition greedily list-scheduled over its
// worker count) and the total flops of those calls since the last
// ResetKernelCounts. work/span is the partition's modeled parallel speedup —
// a machine-independent load-balance metric, unaffected by the host's real
// core count.
func SpanFlops() (span, work int64) { return sparse.SpanFlops() }

// MonoKernelCounts reports how many multiply operations ran a monomorphized
// hot-semiring kernel and how many fell back to the generic closure kernels
// since the last ResetKernelCounts.
func MonoKernelCounts() (mono, closure int64) { return sparse.MonoCounts() }

// FormatConversionCount reports the number of sparse→bitmap/dense view
// materializations (cache misses) since the last ResetKernelCounts.
func FormatConversionCount() int64 { return sparse.FormatConversionCount() }

// KernelCounts reports how many multiply row ranges the dense and hash
// accumulators served since the last ResetKernelCounts — benchmark and test
// instrumentation for observing adaptive selection.
func KernelCounts() (dense, hash int64) { return sparse.KernelCounts() }

// DirectionCounts reports how many matrix-vector products the push and pull
// kernels served since the last ResetKernelCounts — instrumentation for
// observing direction-optimizing traversal routing.
func DirectionCounts() (push, pull int64) { return sparse.DirectionCounts() }

// TransposeCount reports the number of transpose materializations (actual
// bucket transposes, not cache hits) since the last ResetKernelCounts.
// Repeated operations with a Transpose descriptor flag on an unmodified
// matrix materialize exactly once; the cached view serves the rest.
func TransposeCount() int64 { return sparse.TransposeCount() }

// KernelScratchBytes reports the accumulator scratch (dense SPA buffers, hash
// tables, gather workspaces) allocated by multiply kernels since the last
// ResetKernelCounts.
func KernelScratchBytes() int64 { return sparse.ScratchBytes() }

// HardeningCounts reports the execution-hardening telemetry since the last
// ResetKernelCounts: degrades is the number of budget-forced route changes
// (dense→hash accumulator fallback, thread halving, skipped transpose
// caching, push→pull flips), panics the number of kernel panics recovered
// into parked execution errors (§V) instead of crashing the process.
func HardeningCounts() (degrades, panics int64) { return sparse.HardeningCounts() }

// ResetKernelCounts zeroes the selection, scratch, direction-routing,
// transpose-materialization, hardening and span counters.
func ResetKernelCounts() { sparse.ResetKernelCounts() }
