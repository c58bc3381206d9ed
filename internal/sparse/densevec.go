package sparse

import (
	"sync"
	"unsafe"
)

// Block formats (bitmap and full/dense) for vectors and matrices. A block
// view stores one value slot per position, so dense frontiers and PageRank
// iterations index it directly instead of binary-searching or hashing the
// sorted-coordinate form. Views are memoized on the sparse object
// (Vec.dv/CSR.dm) under the immutable-on-write contract, and converted back
// with Sparse/CSR for the round-trip property tests.

// DenseVec is the block view of a vector: Val has one slot per position.
// Bit == nil marks the full variant (every position stored, Nnz == N);
// otherwise Bit[i] reports whether position i holds an entry and absent
// slots of Val are zero-valued padding with no semiring meaning.
type DenseVec[T any] struct {
	N   int
	Val []T
	Bit []bool
	Nnz int
}

// Full reports whether the view stores every position (no bitmap).
func (d *DenseVec[T]) Full() bool { return d.Bit == nil }

// denseViewMu serializes block-view materialization (vector and matrix).
// Concurrent readers that lose the build race share the winner's view; the
// double-checked load keeps the common cached-hit path lock-free.
var denseViewMu sync.Mutex

// DenseView returns the memoized block view, materializing it on first use.
// Convenience wrapper for tests and unbudgeted callers; kernels use
// DenseViewEx so the materialization charges the operation's budget.
func (v *Vec[T]) DenseView() *DenseVec[T] {
	d, err := v.DenseViewEx(Exec{})
	if err != nil {
		panic(err)
	}
	return d
}

// DenseViewEx returns the memoized block view of v, materializing it on
// first use. The value (and bitmap) arrays are charged persistently against
// the budget — like the transpose cache, the view outlives the operation
// that built it. Returns ErrBudget when the charge does not fit, letting
// the caller fall back to the sparse-form closure kernel.
func (v *Vec[T]) DenseViewEx(e Exec) (*DenseVec[T], error) {
	if d := v.dv.Load(); d != nil {
		return d, nil
	}
	denseViewMu.Lock()
	defer denseViewMu.Unlock()
	if d := v.dv.Load(); d != nil {
		return d, nil
	}
	if err := siteFormatConvert.Check(); err != nil {
		return nil, err
	}
	var zero T
	full := v.NNZ() == v.N
	bytes := int64(v.N) * int64(unsafe.Sizeof(zero))
	if !full {
		bytes += int64(v.N)
	}
	if !e.Tx.ReservePersistent(bytes) {
		return nil, ErrBudget
	}
	d := &DenseVec[T]{N: v.N, Val: make([]T, v.N), Nnz: v.NNZ()}
	if !full {
		d.Bit = make([]bool, v.N)
	}
	for k, i := range v.Ind {
		d.Val[i] = v.Val[k]
		if d.Bit != nil {
			d.Bit[i] = true
		}
	}
	formatConversions.Add(1)
	scratchBytes.Add(bytes)
	DebugCheckDenseVec(d, "Vec.DenseView")
	v.dv.Store(d)
	return d, nil
}

// Sparse converts the block view back to sorted-coordinate form.
func (d *DenseVec[T]) Sparse() *Vec[T] {
	out := &Vec[T]{N: d.N}
	if d.Bit == nil {
		out.Ind = fullPattern(d.N)
		out.Val = make([]T, d.N)
		copy(out.Val, d.Val)
	} else {
		out.Ind = make([]int, 0, d.Nnz)
		out.Val = make([]T, 0, d.Nnz)
		for i, ok := range d.Bit {
			if ok {
				out.Ind = append(out.Ind, i)
				out.Val = append(out.Val, d.Val[i])
			}
		}
	}
	DebugCheckVec(out, "DenseVec.Sparse")
	return out
}
