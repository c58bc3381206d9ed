package grb

import (
	"io"
	"net/http"

	"github.com/grblas/grb/internal/obsv"
	"github.com/grblas/grb/internal/sparse"
)

// This file is the public face of the observability subsystem (internal/obsv;
// see DESIGN.md, "Observability"). The library records one structured event
// per kernel execution — op name, operand dims/nnz, the kernel route actually
// taken and the plan row that decided it, flop estimate, wall time, scratch bytes, goroutine fan-out — and one
// span per deferred-sequence drain, and fans them out to whichever sinks are
// enabled here: a per-op metrics registry, a Chrome-trace JSON writer, and an
// HTTP endpoint. With every sink off (the default) each emit point costs one
// atomic load and zero allocations.

// OpMetrics is one operation's aggregated totals since the last ResetMetrics.
type OpMetrics = obsv.OpMetrics

// EnableMetrics turns the in-process per-op metrics registry on or off,
// returning the previous setting. Read the totals with Metrics.
func EnableMetrics(on bool) bool { return obsv.EnableMetrics(on) }

// Metrics returns the per-op totals collected since the last ResetMetrics,
// keyed by operation name ("MxM", "VxM", "sequence(vector)", ...).
func Metrics() map[string]OpMetrics { return obsv.MetricsSnapshot() }

// MetricsOps returns the recorded operation names in sorted order.
func MetricsOps() []string { return obsv.MetricsOps() }

// ResetMetrics drops all per-op totals.
func ResetMetrics() { obsv.ResetMetrics() }

// TraceTo starts a trace session that buffers every kernel event and sequence
// span, then writes them to w as Chrome-trace-format JSON (load the file in
// chrome://tracing or Perfetto) when StopTrace is called. Only one trace
// session may be active; a second TraceTo fails.
func TraceTo(w io.Writer) error {
	if err := obsv.TraceToWriter(w); err != nil {
		return errf(InvalidValue, "TraceTo: %v", err)
	}
	return nil
}

// TraceToFile starts a persistent trace session writing to path: FlushTrace
// (called automatically by Finalize) rewrites the file with everything
// collected so far, so the trace survives Init/Finalize cycles. This is the
// session the GRB_TRACE=path environment variable starts at Init.
func TraceToFile(path string) error {
	if err := obsv.TraceToFile(path); err != nil {
		return errf(InvalidValue, "TraceToFile: %v", err)
	}
	return nil
}

// StopTrace ends the active trace session, serializing the buffered events
// to the session's writer or file.
func StopTrace() error {
	if err := obsv.EndTrace(); err != nil {
		return errf(InvalidValue, "StopTrace: %v", err)
	}
	return nil
}

// FlushTrace writes the cumulative buffer of a file trace session to its
// path and keeps collecting; it is a no-op for writer sessions. Finalize
// calls it so a GRB_TRACE file is valid even if the process never ends the
// session explicitly.
func FlushTrace() error {
	err := obsv.FlushTrace()
	if err != nil && err != obsv.ErrNotTracing {
		return errf(InvalidValue, "FlushTrace: %v", err)
	}
	return nil
}

// Tracing reports whether a trace session is collecting events.
func Tracing() bool { return obsv.Tracing() }

// MetricsHandler returns an expvar-style HTTP handler exposing the sink
// states, per-op metrics, and kernel-routing counters as JSON, for
// long-running serving processes:
//
//	http.Handle("/debug/grb", grb.MetricsHandler())
func MetricsHandler() http.Handler { return obsv.Handler() }

// evKernel builds the call-time half of a kernel event, or nil when no sink
// is observing — the nil flows through enqueue/Begin/End untouched, keeping
// the disabled path allocation-free.
func evKernel(op string) *obsv.Event {
	if !obsv.Active() {
		return nil
	}
	return &obsv.Event{Op: op, Kind: "kernel"}
}

// mxmFlops returns the flop upper bound of A·B, or 0 when either input is
// transposed — estimating through a transpose would materialize it eagerly
// at call time, changing the deferred sequence's behavior just because a
// sink is watching. Only called when a sink is active.
func mxmFlops[DA, DB any](a *sparse.CSR[DA], b *sparse.CSR[DB], ta, tb bool) int64 {
	if ta || tb {
		return 0
	}
	return sparse.SpGEMMFlopsTotal(a, b)
}

// The kernel-routing counters. Routing is decided per operation by the
// Descriptor's Dir pin or from operand statistics (DESIGN.md,
// "Kernel selection") — there is no process-wide routing state — and these
// read-only accessors are how benchmarks and tests observe it.

// KernelCounts reports how many multiply row ranges the dense and hash
// accumulators served since the last ResetKernelCounts.
func KernelCounts() (dense, hash int64) { return sparse.KernelCounts() }

// KernelScratchBytes reports the accumulator scratch (dense SPA buffers, hash
// tables, gather views) allocated by multiply kernels since the last
// ResetKernelCounts.
func KernelScratchBytes() int64 { return sparse.ScratchBytes() }

// DirectionCounts reports how many matrix-vector products the push and pull
// kernels served since the last ResetKernelCounts.
func DirectionCounts() (push, pull int64) { return sparse.DirectionCounts() }

// MonoKernelCounts reports how many multiply operations ran a monomorphized
// family loop and how many ran the closure loops since the last
// ResetKernelCounts.
func MonoKernelCounts() (mono, closure int64) { return sparse.MonoCounts() }

// TransposeCount reports the number of transpose materializations (actual
// bucket transposes, not cache hits) since the last ResetKernelCounts.
// Repeated operations with a Transpose descriptor flag on an unmodified
// matrix materialize exactly once; the cached view serves the rest.
func TransposeCount() int64 { return sparse.TransposeCount() }

// SpanFlops reports the accumulated modeled parallel span (the makespan, in
// flops, of each SpGEMM call's partition greedily list-scheduled over its
// worker count) and the total flops of those calls since the last
// ResetKernelCounts. work/span is the partition's modeled parallel speedup —
// a machine-independent load-balance metric, unaffected by the host's real
// core count.
func SpanFlops() (span, work int64) { return sparse.SpanFlops() }

// BlockKernelCounts always reports 0, 0: there is no 2D-blocked engine — the
// multiplies have one partitioning scheme, flop-balanced 1D row ranges
// (DESIGN.md, "Why there is no blocked engine"). The accessor stays because
// the repo benchmark reads it for its grb.blocked_ops counter.
func BlockKernelCounts() (ops, tasks int64) { return 0, 0 }

// HardeningCounts reports the execution-hardening telemetry since the last
// ResetKernelCounts: degrades is the number of budget-forced route changes
// (dense→hash accumulator fallback, thread halving, skipped transpose
// caching, push→pull flips), panics the number of kernel panics recovered
// into parked execution errors (§V) instead of crashing the process.
func HardeningCounts() (degrades, panics int64) { return sparse.HardeningCounts() }

// ResetKernelCounts zeroes the selection, scratch, direction-routing,
// transpose-materialization, hardening and span counters.
func ResetKernelCounts() { sparse.ResetKernelCounts() }
