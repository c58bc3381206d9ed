package obsv

import "sync/atomic"

// The label registry aggregates request-level activity per caller-supplied
// label — in the serving layer, one label per tenant. It deliberately lives
// beside (not inside) the per-op registry: ops answer "what did the library
// do", labels answer "who asked for it". A serving process records one
// labeled observation per request, so the rates here are request rates, not
// kernel rates, and stay meaningful even when per-op metrics are disabled.

// reqStats is the mutable request accumulator of a label or a (label, op)
// pair; atomics only, so concurrent request handlers record without a lock.
type reqStats struct{ requests, errors, ns atomic.Int64 }

func (r *reqStats) note(ns int64, isErr bool) {
	r.requests.Add(1)
	r.ns.Add(ns)
	if isErr {
		r.errors.Add(1)
	}
}

func (r *reqStats) read() LabelOpMetrics {
	return LabelOpMetrics{Requests: r.requests.Load(), Errors: r.errors.Load(), TotalNs: r.ns.Load()}
}

type labelStats struct {
	reqStats
	byOp table[reqStats]
}

var labelRegistry table[labelStats]

// LabelOpMetrics is one (label, op) pair's totals since the last reset.
type LabelOpMetrics struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors,omitempty"`
	TotalNs  int64 `json:"total_ns"`
}

// LabelMetrics is one label's aggregated totals since the last ResetLabels,
// and the same per op it asked for.
type LabelMetrics struct {
	LabelOpMetrics
	ByOp map[string]LabelOpMetrics `json:"by_op,omitempty"`
}

// NoteLabeled folds one completed request into the label registry:
// label identifies the caller (tenant), op the operation it asked for,
// ns the request's wall time, and isErr whether it failed. Always on —
// one call per request is far below the emit-point cost concerns that
// gate the kernel-level registries.
func NoteLabeled(label, op string, ns int64, isErr bool) {
	ls := labelRegistry.get(label)
	ls.note(ns, isErr)
	if op != "" {
		ls.byOp.get(op).note(ns, isErr)
	}
}

// LabelsSnapshot returns the per-label totals since the last reset.
func LabelsSnapshot() map[string]LabelMetrics {
	return snapshot(&labelRegistry, func(s *labelStats) LabelMetrics {
		return LabelMetrics{LabelOpMetrics: s.read(), ByOp: snapshot(&s.byOp, (*reqStats).read)}
	})
}

// ResetLabels drops every per-label accumulator.
func ResetLabels() { labelRegistry.reset() }
