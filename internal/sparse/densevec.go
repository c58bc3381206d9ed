package sparse

import (
	"sync"
	"unsafe"
)

// The block format of a vector (bitmap and full/dense). A block view stores
// one value slot per position, so dense frontiers and PageRank iterations
// index it directly instead of binary-searching or hashing the
// sorted-coordinate form. It is the pull product's one densifier: the family
// loops and the closure loop both gather through it. The view is memoized on
// the vector (Vec.dv), whose values never change under a reader, and converted
// back with Sparse for the round-trip property tests. Matrices have no block
// view: a fully dense matrix runs the CSR row loop, which is faster on its
// own best case (EXPERIMENTS.md, "One multiply scaffold").

// DenseVec is the block view of a vector: Val has one slot per position.
// Bit == nil marks the full variant (every position stored, Nnz == N), whose
// Val is the vector's own and must not be written; otherwise Bit[i] reports
// whether position i holds an entry and absent slots of Val are zero-valued
// padding with no semiring meaning.
type DenseVec[T any] struct {
	N   int
	Val []T
	Bit []bool
	Nnz int
}

// Full reports whether the view stores every position (no bitmap).
func (d *DenseVec[T]) Full() bool { return d.Bit == nil }

// denseViewMu serializes block-view materialization. Concurrent readers that
// lose the build race share the winner's view; the double-checked load keeps
// the common cached-hit path lock-free.
var denseViewMu sync.Mutex

// viewBytes is what materializing v's block view allocates: the value slots
// plus the presence bitmap, or nothing when v is full and is its own view.
func (v *Vec[T]) viewBytes() int64 {
	if v.NNZ() == v.N {
		return 0
	}
	var zero T
	return int64(v.N) * int64(unsafe.Sizeof(zero)+1)
}

// DenseViewEx returns the block view of v. A full vector's values already
// are one slot per position, and nothing writes them while v can be read,
// so its view aliases v.Val: no conversion, no allocation, no scratch, no
// charge. Any other view is materialized on first use and memoized; that
// miss is the operation's gather scratch and is charged as such —
// transiently, under the gather site, released when the operation's
// transaction closes — because the view dies with the vector snapshot,
// which in an iteration is the next step (a persistent charge would outlive
// every freed frontier and exhaust the budget with flat live memory).
// Returns ErrBudget when the charge does not fit.
func (v *Vec[T]) DenseViewEx(e Exec) (DenseVec[T], error) {
	if v.NNZ() == v.N {
		return DenseVec[T]{N: v.N, Val: v.Val, Nnz: v.N}, nil
	}
	if d := v.dv.Load(); d != nil {
		return *d, nil
	}
	denseViewMu.Lock()
	defer denseViewMu.Unlock()
	if d := v.dv.Load(); d != nil {
		return *d, nil
	}
	if err := siteFormatConvert.Check(); err != nil {
		return DenseVec[T]{}, err
	}
	bytes := v.viewBytes()
	if err := e.charge(siteSpMVGather, bytes); err != nil {
		return DenseVec[T]{}, err
	}
	d := &DenseVec[T]{N: v.N, Val: make([]T, v.N), Bit: make([]bool, v.N), Nnz: v.NNZ()}
	for k, i := range v.Ind {
		d.Val[i] = v.Val[k]
		d.Bit[i] = true
	}
	formatConversions.Add(1)
	scratchBytes.Add(bytes)
	DebugCheckDenseVec(d, "Vec.DenseView")
	v.dv.Store(d)
	return *d, nil
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
