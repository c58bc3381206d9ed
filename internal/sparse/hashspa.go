package sparse

import (
	"github.com/grblas/grb/internal/obsv"
	"github.com/grblas/grb/internal/parallel"
)

// SpGEMMFlops is the symbolic pass of the adaptive SpGEMM: it returns the
// prefix array fptr (length a.Rows+1, fptr[0]=0) of per-row flop upper
// bounds, where the bound for row i is Σ_{k∈A(i,:)} nnz(B(A.Ind[k],:)) — the
// number of multiply calls Gustavson's algorithm performs for that row. The
// prefix form feeds parallel.BalancedRanges directly, so row partitions are
// balanced by flops rather than by nnz(A), and fptr[i+1]-fptr[i] presizes the
// hash accumulator exactly.
func SpGEMMFlops[A, B any](a *CSR[A], b *CSR[B], workers int) []int {
	fptr := make([]int, a.Rows+1)
	parallel.For(a.Rows, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ind, _ := a.Row(i)
			f := 0
			for _, k := range ind {
				f += b.Ptr[k+1] - b.Ptr[k]
			}
			fptr[i+1] = f
		}
	})
	for i := 0; i < a.Rows; i++ {
		fptr[i+1] += fptr[i]
	}
	return fptr
}

// hashAccum is an open-addressing (linear probing) sparse accumulator: the
// hash-SPA counterpart of the dense generation-stamped SPA in SpGEMM. The
// table is sized per row from the row's flop upper bound, so it never needs
// to grow mid-row; occupied slots are recorded and cleared after each row,
// keeping reset cost proportional to the row's output, not the table.
type hashAccum[C any] struct {
	keys  []int // column index per slot, -1 = empty
	vals  []C
	mask  int   // len(keys)-1, power of two minus one
	slots []int // occupied slot indices, for O(nnz(row)) reset
}

// ensure grows the table to a power-of-two capacity ≥ 2*n (≥ 16). It must be
// called only while the table is empty (freshly reset), since growing
// discards slot contents.
func (h *hashAccum[C]) ensure(n int) {
	c := hashCapacity(n)
	if c <= len(h.keys) {
		return
	}
	h.keys = make([]int, c)
	for i := range h.keys {
		h.keys[i] = -1
	}
	h.vals = make([]C, c)
	h.mask = c - 1
	obsv.ScratchBytes.Add(int64(c) * slotBytes[C]())
}

// slot returns the slot holding key j, or the empty slot where j belongs.
func (h *hashAccum[C]) slot(j int) int {
	// Fibonacci hashing spreads consecutive column indices across the table.
	s := int((uint64(j)*0x9E3779B97F4A7C15)>>33) & h.mask
	for h.keys[s] != -1 && h.keys[s] != j {
		s = (s + 1) & h.mask
	}
	return s
}

// reset clears the occupied slots recorded since the previous reset.
func (h *hashAccum[C]) reset() {
	for _, s := range h.slots {
		h.keys[s] = -1
	}
	h.slots = h.slots[:0]
}

// hashLookup is a read-only open-addressing map from vector index to value,
// the gather-side analogue of hashAccum: SpMV's pull path builds one from the
// input vector instead of scattering it into an O(n) dense buffer when the
// vector is hypersparse. It is built once and then only read, so concurrent
// workers may share it without synchronization.
type hashLookup[T any] struct {
	keys []int
	vals []T
	mask int
}

// lookupBytes is what newHashLookup(v) allocates.
func lookupBytes[T any](v *Vec[T]) int64 { return int64(hashCapacity(v.NNZ())) * slotBytes[T]() }

// newHashLookup builds the table of v's entries, walking v in any form.
func newHashLookup[T any](v *Vec[T]) *hashLookup[T] {
	c := hashCapacity(v.NNZ())
	h := &hashLookup[T]{keys: make([]int, c), vals: make([]T, c), mask: c - 1}
	for i := range h.keys {
		h.keys[i] = -1
	}
	obsv.ScratchBytes.Add(int64(c) * slotBytes[T]())
	v.Each(func(j int, x T) bool {
		h.put(j, x)
		return true
	})
	return h
}

func (h *hashLookup[T]) put(j int, x T) {
	s := int((uint64(j)*0x9E3779B97F4A7C15)>>33) & h.mask
	for h.keys[s] != -1 {
		s = (s + 1) & h.mask
	}
	h.keys[s], h.vals[s] = j, x
}

func (h *hashLookup[T]) get(j int) (T, bool) {
	s := int((uint64(j)*0x9E3779B97F4A7C15)>>33) & h.mask
	for {
		switch h.keys[s] {
		case j:
			return h.vals[s], true
		case -1:
			var zero T
			return zero, false
		}
		s = (s + 1) & h.mask
	}
}
