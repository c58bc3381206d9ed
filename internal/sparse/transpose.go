package sparse

import (
	"sync"

	"github.com/grblas/grb/internal/parallel"
)

// transposeCacheMu serializes cache misses in TransposeCached so concurrent
// readers of the same matrix trigger exactly one materialization. It is
// global (shared by every domain instantiation): contention only occurs
// while a transpose is being built, a once-per-matrix event.
var transposeCacheMu sync.Mutex

// TransposeCached returns Aᵀ, memoized on the (immutable) input: the first
// call materializes with Transpose and caches the result on both matrices —
// (Aᵀ)ᵀ = A, so round trips through a Transpose descriptor are free — and
// every later call returns the shared view. Safe for concurrent readers: the
// cache pointer is atomic, and a mutex makes the miss path exactly-once.
// Coherence with mutation needs no invalidation hook because the grb layer
// never mutates a CSR in place; pending-sequence steps and tuple merges
// always install a freshly built matrix with an empty cache.
func TransposeCached[T any](a *CSR[T]) *CSR[T] {
	t, err := TransposeCachedEx(a, Exec{})
	if err != nil {
		panic(err)
	}
	return t
}

// TransposeCachedEx is the hardened form of TransposeCached. The cached view
// outlives the operation that built it, so its memory is charged persistently
// against the budget (never released by the op's transaction); when that
// charge does not fit, the function counts a degradation and returns
// ErrBudget WITHOUT building anything — the caller's cue to skip caching
// (build transiently with TransposeEx) or flip to the orientation it already
// has.
func TransposeCachedEx[T any](a *CSR[T], e Exec) (*CSR[T], error) {
	if t := a.tr.Load(); t != nil {
		return t, nil
	}
	transposeCacheMu.Lock()
	defer transposeCacheMu.Unlock()
	if t := a.tr.Load(); t != nil {
		return t, nil
	}
	if err := siteTranspose.Check(); err != nil {
		return nil, err
	}
	if !e.Tx.ReservePersistent(transposeBytes(a)) {
		budgetDegrades.Add(1)
		return nil, ErrBudget
	}
	t, err := transposeGuarded(a)
	if err != nil {
		return nil, err
	}
	t.tr.Store(a)
	a.tr.Store(t)
	return t, nil
}

// TransposeEx materializes Aᵀ transiently under the execution environment:
// the result is charged to the operation's transaction (released when the op
// completes) and NOT cached on the input — the degraded no-cache route.
func TransposeEx[T any](a *CSR[T], e Exec) (*CSR[T], error) {
	if err := e.charge(siteTranspose, transposeBytes(a)); err != nil {
		return nil, err
	}
	return transposeGuarded(a)
}

// transposeBytes is the budget cost of materializing Aᵀ: the output's index,
// value and pointer arrays.
func transposeBytes[T any](a *CSR[T]) int64 {
	return int64(a.NNZ())*slotBytes[T]() + int64(a.Cols+1)*8
}

// transposeGuarded runs the bucket transpose with panic recovery, so a fault
// injected (or a bug surfacing) mid-build becomes an error, not a crash.
func transposeGuarded[T any](a *CSR[T]) (out *CSR[T], err error) {
	defer recoverExec(&err)
	return Transpose(a), nil
}

// Transpose returns Aᵀ using a two-pass counting (bucket) transpose: column
// populations are counted, prefix-summed into the output row pointer, then
// entries are scattered. The scatter preserves row order within each output
// row, so column indices stay sorted. O(nnz + rows + cols).
func Transpose[T any](a *CSR[T]) *CSR[T] {
	transposeMats.Add(1)
	out := &CSR[T]{Rows: a.Cols, Cols: a.Rows,
		Ptr: make([]int, a.Cols+1),
		Ind: make([]int, a.NNZ()),
		Val: make([]T, a.NNZ())}
	for _, j := range a.Ind {
		out.Ptr[j+1]++
	}
	for j := 0; j < a.Cols; j++ {
		out.Ptr[j+1] += out.Ptr[j]
	}
	next := make([]int, a.Cols)
	copy(next, out.Ptr[:a.Cols])
	for i := 0; i < a.Rows; i++ {
		ind, val := a.Row(i)
		for k := range ind {
			j := ind[k]
			p := next[j]
			next[j]++
			out.Ind[p] = i
			out.Val[p] = val[k]
		}
	}
	DebugCheckCSR(out, "Transpose")
	return out
}

// Diag builds a square matrix whose k-th diagonal holds the entries of v:
// entry v(i) is placed at (i, i+k) for k >= 0 or (i-k, i) for k < 0. The
// matrix is (n+|k|)×(n+|k|) with n = v.N, matching GrB_Matrix_diag.
func Diag[T any](v *Vec[T], k int) *CSR[T] {
	abs := k
	if abs < 0 {
		abs = -abs
	}
	n := v.N + abs
	out := NewCSR[T](n, n)
	out.Ind = make([]int, 0, v.NNZ())
	out.Val = make([]T, 0, v.NNZ())
	for idx, i := range v.Ind {
		var r, c int
		if k >= 0 {
			r, c = i, i+k
		} else {
			r, c = i-k, i
		}
		out.Ind = append(out.Ind, c)
		out.Val = append(out.Val, v.Val[idx])
		out.Ptr[r+1]++
	}
	for i := 0; i < n; i++ {
		out.Ptr[i+1] += out.Ptr[i]
	}
	DebugCheckCSR(out, "Diag")
	return out
}

// ReduceRows reduces each row of A with the monoid operation, producing the
// vector t(i) = ⊕_j A(i,j). Rows with no entries produce no output entry
// (GraphBLAS reduce-to-vector semantics).
func ReduceRows[T any](mon Mon, a *CSR[T], add func(T, T) T, e Exec) *Vec[T] {
	sum := familyLoop[func([]T) T](reduceLoops[:], mon)
	parts := parallel.BalancedRanges(a.Rows, e.workers(a.NNZ()), a.Ptr)
	sums := make([]run[T], len(parts)-1) //grblint:ignore budgetcheck -- O(workers)
	parallel.Run(parts, len(parts)-1, func(part, lo, hi int) {
		ind, val := rowBufs[T](a.Ptr, a.Rows, lo, hi)
		for i := lo; i < hi; i++ {
			if _, rv := a.Row(i); len(rv) > 0 {
				ind, val = append(ind, i), append(val, fold(rv, sum, add))
			}
		}
		sums[part] = run[T]{ind, val}
	})
	return stitchVec(a.Rows, sums)
}

// fold reduces a non-empty slice from its first entry: through sum, the
// family loop reduceLoops holds for the monoid's (Mon, T), or else through
// add — the closure loop. The three reductions call it, so they plug in the
// same loop the same way, and everything that fixes how a sum associates
// (ranges, index order, the partial sums' fold) stays theirs.
func fold[T any](v []T, sum func([]T) T, add func(T, T) T) T {
	if sum != nil {
		return sum(v)
	}
	acc := v[0]
	for _, x := range v[1:] {
		acc = add(acc, x)
	}
	return acc
}

// ReduceCols reduces each column of A: t(j) = ⊕_i A(i,j). Implemented by
// scattering into per-worker accumulators of width A.Cols and merging.
func ReduceCols[T any](a *CSR[T], add func(T, T) T, e Exec) *Vec[T] {
	parts := parallel.BalancedRanges(a.Rows, e.workers(a.NNZ()), a.Ptr)
	nparts := len(parts) - 1
	if nparts == 0 {
		return NewVec[T](a.Cols)
	}
	accs := make([][]T, nparts)
	oks := make([][]bool, nparts)
	parallel.Run(parts, nparts, func(part, lo, hi int) {
		acc := make([]T, a.Cols)   //grblint:ignore budgetcheck -- an unbudgeted kernel: its Exec only sizes the fork
		ok := make([]bool, a.Cols) //grblint:ignore budgetcheck -- as above
		for i := lo; i < hi; i++ {
			ind, val := a.Row(i)
			for k := range ind {
				j := ind[k]
				if !ok[j] {
					ok[j] = true
					acc[j] = val[k]
				} else {
					acc[j] = add(acc[j], val[k])
				}
			}
		}
		accs[part] = acc
		oks[part] = ok
	})
	// Some parts may be empty (nnz-balanced ranges can collapse); find the
	// first populated accumulator as the merge base.
	base := -1
	for p := 0; p < nparts; p++ {
		if accs[p] != nil {
			base = p
			break
		}
	}
	if base < 0 {
		return NewVec[T](a.Cols)
	}
	acc0, ok0 := accs[base], oks[base]
	for p := base + 1; p < nparts; p++ {
		if accs[p] == nil {
			continue
		}
		for j := 0; j < a.Cols; j++ {
			if oks[p][j] {
				if !ok0[j] {
					ok0[j] = true
					acc0[j] = accs[p][j]
				} else {
					acc0[j] = add(acc0[j], accs[p][j])
				}
			}
		}
	}
	return GatherVec(acc0, ok0)
}

// ReduceAll reduces every stored entry of A to a single value; ok is false
// when A has no entries (the GraphBLAS 2.0 Scalar-output reduce returns an
// empty GrB_Scalar in that case, §VI). Ranges never outnumber the entries,
// so each is non-empty and leaves a partial sum; those fold in range order.
func ReduceAll[T any](mon Mon, a *CSR[T], add func(T, T) T, e Exec) (T, bool) {
	var zero T
	if a.NNZ() == 0 {
		return zero, false
	}
	sum := familyLoop[func([]T) T](reduceLoops[:], mon)
	parts := parallel.Ranges(a.NNZ(), e.workers(a.NNZ()))
	partial := make([]T, len(parts)-1) //grblint:ignore budgetcheck -- O(workers)
	parallel.Run(parts, len(partial), func(part, lo, hi int) {
		partial[part] = fold(a.Val[lo:hi], sum, add)
	})
	return fold(partial, sum, add), true
}

// ReduceVec reduces every stored entry of a vector; ok is false when empty.
func ReduceVec[T any](mon Mon, v *Vec[T], add func(T, T) T) (T, bool) {
	var zero T
	if v.NNZ() == 0 {
		return zero, false
	}
	return fold(v.Val, familyLoop[func([]T) T](reduceLoops[:], mon), add), true
}
