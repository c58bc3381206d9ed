package obsv

import (
	"sort"
	"sync"
	"sync/atomic"
)

// table is a concurrent name → *V registry: get-or-create on the write path,
// without a lock or an allocation once the entry exists; snapshot, sorted
// names and reset for the readers. The per-op metrics, the per-tenant labels
// with each tenant's per-op sub-table, and the serve cells are each one.
type table[V any] struct{ m sync.Map }

// get returns name's entry, creating it on first use.
func (t *table[V]) get(name string) *V {
	if v, ok := t.m.Load(name); ok {
		return v.(*V)
	}
	v, _ := t.m.LoadOrStore(name, new(V))
	return v.(*V)
}

// names returns the entry names in sorted order.
func (t *table[V]) names() []string {
	var out []string
	t.m.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}

// reset drops every entry.
func (t *table[V]) reset() {
	t.m.Range(func(k, _ any) bool {
		t.m.Delete(k)
		return true
	})
}

// snapshot reads every entry of t through read, keyed by name.
func snapshot[V, R any](t *table[V], read func(*V) R) map[string]R {
	out := make(map[string]R)
	t.m.Range(func(k, v any) bool {
		out[k.(string)] = read(v.(*V))
		return true
	})
	return out
}

// The metrics registry aggregates events per operation name: counts, wall
// time, flops and every kernel counter, per user-level op rather than summed
// across everything.

// opStats is the mutable per-op accumulator; all fields are atomics so
// concurrent kernels record without a lock.
type opStats struct {
	count, errors, ns, flops, outNNZ, steps atomic.Int64
	counters                                bank
}

var registry table[opStats]

// OpMetrics is one operation's aggregated totals since the last ResetMetrics.
// Counters holds the kernel counters' per-call deltas summed over its
// events, by counter name; counters that stayed zero are left out.
type OpMetrics struct {
	Count    int64            `json:"count"`
	Errors   int64            `json:"errors,omitempty"`
	TotalNs  int64            `json:"total_ns"`
	Flops    int64            `json:"flops,omitempty"`
	OutNNZ   int64            `json:"out_nnz,omitempty"`
	Steps    int64            `json:"steps,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// EnableMetrics turns the per-op metrics registry on or off, returning the
// previous setting. Off (the default) keeps emit points allocation-free.
func EnableMetrics(on bool) bool { return setStateBit(stMetrics, on) }

// MetricsEnabled reports whether the registry is collecting.
func MetricsEnabled() bool { return state.Load()&stMetrics != 0 }

// recordMetrics folds one completed event into the registry.
func recordMetrics(ev *Event) {
	s := registry.get(ev.Op)
	s.count.Add(1)
	if ev.Err != "" {
		s.errors.Add(1)
	}
	s.ns.Add(ev.Dur)
	s.flops.Add(ev.Flops)
	s.outNNZ.Add(int64(ev.OutNNZ))
	s.steps.Add(int64(ev.Steps))
	for i, d := range ev.Counters {
		if d != 0 {
			s.counters[i].Add(d)
		}
	}
}

// MetricsSnapshot returns the per-op totals collected since the last reset.
func MetricsSnapshot() map[string]OpMetrics {
	return snapshot(&registry, func(s *opStats) OpMetrics {
		c := s.counters.read()
		return OpMetrics{
			Count:    s.count.Load(),
			Errors:   s.errors.Load(),
			TotalNs:  s.ns.Load(),
			Flops:    s.flops.Load(),
			OutNNZ:   s.outNNZ.Load(),
			Steps:    s.steps.Load(),
			Counters: c.named(false),
		}
	})
}

// MetricsOps returns the recorded op names in sorted order — stable output
// for logs and the HTTP endpoint.
func MetricsOps() []string { return registry.names() }

// ResetMetrics drops every per-op accumulator.
func ResetMetrics() { registry.reset() }
