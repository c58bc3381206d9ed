package sparse

import "github.com/grblas/grb/internal/obsv"

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

// notePartSpan adds a row-partitioned SpGEMM's modeled parallel span (the
// makespan, in flops, of its partition greedily list-scheduled over its
// worker count) and its total flops to the span counters: parts is the
// BalancedRanges boundary list and fptr the per-row flop prefix, so each
// range's flops are fptr deltas and the total is fptr's last entry. The
// ratio work/span is the plan's modeled parallel speedup — a
// machine-independent load-balance metric, immune to the host's real core
// count.
func notePartSpan(parts []int, fptr []int, workers int) {
	units := make([]int64, len(parts)-1)
	for p := range units {
		units[p] = int64(fptr[parts[p+1]] - fptr[parts[p]])
	}
	obsv.SpanFlops.Add(modeledSpan(units, workers))
	obsv.WorkFlops.Add(int64(fptr[len(fptr)-1]))
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
