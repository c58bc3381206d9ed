package obsv

import (
	"sort"
	"sync"
	"sync/atomic"
)

// The metrics registry aggregates events per operation name. It replaces the
// ad-hoc global counters as the structured way to ask "what did the library
// do": counts, wall time, flops, scratch, routing splits — per user-level op
// rather than summed across everything.

// opStats is the mutable per-op accumulator; all fields are atomics so
// concurrent kernels record without a lock.
type opStats struct {
	count, errors              atomic.Int64
	ns, flops, scratch, outNNZ atomic.Int64
	dense, hash, push, pull    atomic.Int64
	tmats, steps               atomic.Int64
	degrades, panics           atomic.Int64
}

var registry sync.Map // op name -> *opStats

// OpMetrics is one operation's aggregated totals since the last ResetMetrics.
type OpMetrics struct {
	Count         int64 `json:"count"`
	Errors        int64 `json:"errors,omitempty"`
	TotalNs       int64 `json:"total_ns"`
	Flops         int64 `json:"flops,omitempty"`
	ScratchBytes  int64 `json:"scratch_bytes,omitempty"`
	OutNNZ        int64 `json:"out_nnz,omitempty"`
	DenseRanges   int64 `json:"dense_ranges,omitempty"`
	HashRanges    int64 `json:"hash_ranges,omitempty"`
	PushCalls     int64 `json:"push_calls,omitempty"`
	PullCalls     int64 `json:"pull_calls,omitempty"`
	TransposeMats int64 `json:"transpose_mats,omitempty"`
	Steps         int64 `json:"steps,omitempty"`
	// Hardening telemetry: budget-forced route changes (hash accumulator,
	// hash mask predicate, push→pull flip) and kernel panics recovered into
	// parked §V errors, attributed to the op whose drain triggered them.
	BudgetDegrades  int64 `json:"budget_degrades,omitempty"`
	PanicsRecovered int64 `json:"panics_recovered,omitempty"`
}

// EnableMetrics turns the per-op metrics registry on or off, returning the
// previous setting. Off (the default) keeps emit points allocation-free.
func EnableMetrics(on bool) bool { return setStateBit(stMetrics, on) }

// MetricsEnabled reports whether the registry is collecting.
func MetricsEnabled() bool { return state.Load()&stMetrics != 0 }

// statsFor returns the accumulator for op, creating it on first use.
func statsFor(op string) *opStats {
	if s, ok := registry.Load(op); ok {
		return s.(*opStats)
	}
	s, _ := registry.LoadOrStore(op, &opStats{})
	return s.(*opStats)
}

// recordMetrics folds one completed event into the registry.
func recordMetrics(ev *Event) {
	s := statsFor(ev.Op)
	s.count.Add(1)
	if ev.Err != "" {
		s.errors.Add(1)
	}
	s.ns.Add(ev.Dur)
	s.flops.Add(ev.Flops)
	s.scratch.Add(ev.ScratchBytes)
	s.outNNZ.Add(int64(ev.OutNNZ))
	s.dense.Add(ev.DenseRanges)
	s.hash.Add(ev.HashRanges)
	s.push.Add(ev.PushCalls)
	s.pull.Add(ev.PullCalls)
	s.tmats.Add(ev.TransposeMats)
	s.steps.Add(int64(ev.Steps))
	s.degrades.Add(ev.BudgetDegrades)
	s.panics.Add(ev.PanicsRecovered)
}

// MetricsSnapshot returns the per-op totals collected since the last reset.
func MetricsSnapshot() map[string]OpMetrics {
	out := make(map[string]OpMetrics)
	registry.Range(func(k, v any) bool {
		s := v.(*opStats)
		out[k.(string)] = OpMetrics{
			Count:           s.count.Load(),
			Errors:          s.errors.Load(),
			TotalNs:         s.ns.Load(),
			Flops:           s.flops.Load(),
			ScratchBytes:    s.scratch.Load(),
			OutNNZ:          s.outNNZ.Load(),
			DenseRanges:     s.dense.Load(),
			HashRanges:      s.hash.Load(),
			PushCalls:       s.push.Load(),
			PullCalls:       s.pull.Load(),
			TransposeMats:   s.tmats.Load(),
			Steps:           s.steps.Load(),
			BudgetDegrades:  s.degrades.Load(),
			PanicsRecovered: s.panics.Load(),
		}
		return true
	})
	return out
}

// MetricsOps returns the recorded op names in sorted order — stable output
// for logs and the HTTP endpoint.
func MetricsOps() []string {
	var ops []string
	registry.Range(func(k, _ any) bool {
		ops = append(ops, k.(string))
		return true
	})
	sort.Strings(ops)
	return ops
}

// ResetMetrics drops every per-op accumulator.
func ResetMetrics() {
	registry.Range(func(k, _ any) bool {
		registry.Delete(k)
		return true
	})
}
