package sparse

import (
	"sync"

	"github.com/grblas/grb/internal/obsv"
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

// TransposeCachedEx is the hardened form of TransposeCached, and the one door
// every budgeted operation reaches Aᵀ through. The cached view outlives the
// operation that built it, so its memory is charged persistently against the
// budget (never released by the op's transaction, only by freeing the
// context); when that charge does not fit it returns ErrBudget WITHOUT
// building anything. A refusal is not itself a route change, so it counts no
// degradation: the caller either parks OutOfMemory or, for an auto-routed
// matrix-vector push, flips to the orientation it already has and counts
// that.
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
	obsv.TransposeMats.Add(1)
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
	r0, c0 := max(-k, 0), max(k, 0) // v(i) sits at (i+r0, i+c0)
	n := v.N + r0 + c0
	out := NewCSR[T](n, n)
	out.Ind, out.Val = makeRun[T](v.NNZ())
	v.Each(func(i int, x T) bool {
		out.Ind, out.Val = append(out.Ind, i+c0), append(out.Val, x)
		out.Ptr[i+r0+1]++
		return true
	})
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
		rows := 0 // the range's non-empty rows: its output, exactly
		for i := lo; i < hi; i++ {
			if a.Ptr[i+1] > a.Ptr[i] {
				rows++
			}
		}
		ind, val := makeRun[T](rows)
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

// reduceBlock is ReduceAll's unit of association: each block of this many
// entries folds on its own and the blocks' sums fold in block order, so the
// bits of a sum do not depend on how many workers shared the blocks. It is
// below DefaultGrain, so a default-grain fork never has more workers than
// blocks.
const reduceBlock = 1 << 14

// ReduceAll reduces every stored entry of A to a single value; ok is false
// when A has no entries (the GraphBLAS 2.0 Scalar-output reduce returns an
// empty GrB_Scalar in that case, §VI). The entries fold in reduceBlock
// blocks, whatever the worker count.
func ReduceAll[T any](mon Mon, a *CSR[T], add func(T, T) T, e Exec) (T, bool) {
	var zero T
	if a.NNZ() == 0 {
		return zero, false
	}
	sum := familyLoop[func([]T) T](reduceLoops[:], mon)
	partial := make([]T, (a.NNZ()+reduceBlock-1)/reduceBlock) //grblint:ignore budgetcheck -- one value per reduceBlock entries
	parts := parallel.Ranges(len(partial), e.workers(a.NNZ()))
	parallel.Run(parts, len(parts)-1, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			partial[b] = fold(a.Val[b*reduceBlock:min((b+1)*reduceBlock, len(a.Val))], sum, add)
		}
	})
	return fold(partial, sum, add), true
}

// ReduceVec reduces every stored entry of a vector; ok is false when empty.
// A sorted or full vector folds its Val; a bitmap is folded in place, in
// index order, through add.
func ReduceVec[T any](mon Mon, v *Vec[T], add func(T, T) T) (acc T, ok bool) {
	if v.Bit == nil && v.NNZ() > 0 {
		return fold(v.Val, familyLoop[func([]T) T](reduceLoops[:], mon), add), true
	}
	for i, present := range v.Bit {
		switch {
		case !present:
		case ok:
			acc = add(acc, v.Val[i])
		default:
			acc, ok = v.Val[i], true
		}
	}
	return acc, ok
}
