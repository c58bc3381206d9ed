package sparse

import (
	"sort"

	"github.com/grblas/grb/internal/parallel"
)

// ApplyM computes T(i,j) = f(A(i,j)) for every stored entry: pattern is
// preserved, values are mapped, in parallel once there are entries enough.
func ApplyM[A, C any](a *CSR[A], f func(A) C, e Exec) *CSR[C] {
	out := &CSR[C]{Rows: a.Rows, Cols: a.Cols,
		Ptr: make([]int, len(a.Ptr)),
		Ind: make([]int, len(a.Ind)),
		Val: make([]C, len(a.Val))}
	copy(out.Ptr, a.Ptr)
	copy(out.Ind, a.Ind)
	parallel.For(len(a.Val), e.workers(len(a.Val)), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			out.Val[k] = f(a.Val[k])
		}
	})
	return out
}

// ApplyIndexM computes T(i,j) = f(A(i,j), i, j, s) for every stored entry —
// the GraphBLAS 2.0 index variant of apply (§VIII-B). The operator receives
// the entry's row and column indices natively, which is exactly the
// capability the paper adds over 1.X (where indices had to be packed into
// the values array).
func ApplyIndexM[A, S, C any](a *CSR[A], f func(A, int, int, S) C, s S, e Exec) *CSR[C] {
	out := &CSR[C]{Rows: a.Rows, Cols: a.Cols,
		Ptr: make([]int, len(a.Ptr)),
		Ind: make([]int, len(a.Ind)),
		Val: make([]C, len(a.Val))}
	copy(out.Ptr, a.Ptr)
	copy(out.Ind, a.Ind)
	parallel.For(a.Rows, e.workers(a.NNZ()), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ind, val := a.Row(i)
			base := a.Ptr[i]
			for k := range ind {
				out.Val[base+k] = f(val[k], i, ind[k], s)
			}
		}
	})
	return out
}

// SelectM keeps the stored entries of A for which the boolean index operator
// returns true and annihilates the rest — the GraphBLAS 2.0 select operation
// (§VIII-C), a "functional input mask".
func SelectM[A, S any](a *CSR[A], f func(A, int, int, S) bool, s S, e Exec) *CSR[A] {
	return rowwise(a.Rows, a.Cols, e.workers(a.NNZ()), a.span, // at most every entry survives
		func(i int, ind []int, val []A) ([]int, []A) {
			aInd, aVal := a.Row(i)
			for k, j := range aInd {
				if f(aVal[k], i, j, s) {
					ind, val = append(ind, j), append(val, aVal[k])
				}
			}
			return ind, val
		})
}

// Cut tags the Table IV positional select operators, which the grb layer
// recognises by code identity and hands to SelectCutM in place of the
// function. On a sorted row each keeps one contiguous piece of the entries,
// or all but one such piece.
type Cut int

const (
	CutNone    Cut = iota // an unrecognised operator: SelectM calls it per entry
	CutTriL               // col − row ≤ s: a prefix
	CutTriU               // col − row ≥ s: a suffix
	CutDiag               // col − row = s: at most one entry
	CutOffdiag            // col − row ≠ s: all but at most one entry
	CutRowLE              // row ≤ s: the whole row or nothing
	CutRowGT              // row > s: the whole row or nothing
	CutColLE              // col ≤ s: a prefix
	CutColGT              // col > s: a suffix
)

// below returns how many of a row's sorted columns ind have col − off < d;
// below(ind, off+1, d) counts col − off ≤ d. It forms off + d only when that
// is at most the last column, and off ≥ 0, so no d overflows.
func below(ind []int, off, d int) int {
	if len(ind) == 0 || d > ind[len(ind)-1]-off {
		return len(ind)
	}
	return sort.SearchInts(ind, off+d)
}

// keep returns the entries of row i (columns ind) that c keeps at s:
// [k0, k1) and [k2, len(ind)).
func (c Cut) keep(ind []int, i, s int) (k0, k1, k2 int) {
	n := len(ind)
	switch c {
	case CutTriL:
		return 0, below(ind, i+1, s), n
	case CutTriU:
		return 0, 0, below(ind, i, s)
	case CutDiag:
		return below(ind, i, s), below(ind, i+1, s), n
	case CutOffdiag:
		return 0, below(ind, i, s), below(ind, i+1, s)
	case CutColLE:
		return 0, below(ind, 1, s), n
	case CutColGT:
		return 0, 0, below(ind, 1, s)
	}
	if (c == CutRowLE) == (i <= s) { // CutRowLE or CutRowGT: all or nothing
		return 0, 0, 0
	}
	return 0, 0, n
}

// SelectCutM is SelectM for a positional operator c ≠ CutNone: one pass
// finds each row's pieces by binary search and writes their length into
// Ptr, a prefix sum places the rows, and a second pass copies the pieces
// once into exact-size arrays. No operator is called and no entry tested.
func SelectCutM[A any](a *CSR[A], c Cut, s int, e Exec) *CSR[A] {
	out := NewCSR[A](a.Rows, a.Cols)
	w := e.workers(a.NNZ())
	parallel.For(a.Rows, w, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ind, _ := a.Row(i)
			k0, k1, k2 := c.keep(ind, i, s)
			out.Ptr[i+1] = k1 - k0 + len(ind) - k2
		}
	})
	for i := range a.Rows {
		out.Ptr[i+1] += out.Ptr[i]
	}
	out.Ind, out.Val = make([]int, out.Ptr[a.Rows]), make([]A, out.Ptr[a.Rows])
	parallel.For(a.Rows, w, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ind, val := a.Row(i)
			k0, k1, k2 := c.keep(ind, i, s)
			at := out.Ptr[i]
			if k1 > k0 {
				copy(out.Val[at:], val[k0:k1])
				at += copy(out.Ind[at:], ind[k0:k1])
			}
			if k2 < len(ind) {
				copy(out.Ind[at:], ind[k2:])
				copy(out.Val[at:], val[k2:])
			}
		}
	})
	DebugCheckCSR(out, "SelectCutM")
	return out
}

// ApplyV computes t(i) = f(u(i)) for every stored entry of a vector. The
// pattern is u's, so the output shares u's index array — a full u makes a
// full output — and allocates only the values. A bitmap is read through its
// sorted view.
func ApplyV[A, C any](u *Vec[A], f func(A) C) *Vec[C] {
	if u.Bit != nil {
		u = u.Sorted()
	}
	out := &Vec[C]{N: u.N, Ind: u.Ind, Val: make([]C, len(u.Val))}
	for k := range u.Val {
		out.Val[k] = f(u.Val[k])
	}
	return out
}

// ApplyIndexV computes t(i) = f(u(i), i, 0, s): for vectors the operator
// receives the row index and a zero column index, matching the paper's
// convention that vector index operators see a single index. Shares u's
// index array like ApplyV.
func ApplyIndexV[A, S, C any](u *Vec[A], f func(A, int, int, S) C, s S) *Vec[C] {
	u = u.Sorted()
	out := &Vec[C]{N: u.N, Ind: u.Ind, Val: make([]C, len(u.Val))}
	for k := range u.Ind {
		out.Val[k] = f(u.Val[k], u.Ind[k], 0, s)
	}
	return out
}

// SelectV keeps the entries of u admitted by the boolean index operator,
// walking u in its resident form.
func SelectV[A, S any](u *Vec[A], f func(A, int, int, S) bool, s S) *Vec[A] {
	out := &Vec[A]{N: u.N}
	out.Ind, out.Val = makeRun[A](u.NNZ())
	u.Each(func(i int, x A) bool {
		if f(x, i, 0, s) {
			out.Ind, out.Val = append(out.Ind, i), append(out.Val, x)
		}
		return true
	})
	return out
}
