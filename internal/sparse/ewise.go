package sparse

import "slices"

// EWiseAddM computes the element-wise "addition" T = A ⊕ B: the union of the
// two patterns, with add applied where both inputs have an entry and the
// single value passed through otherwise (GraphBLAS eWiseAdd). The Go binding
// restricts eWiseAdd to a single domain because pass-through of one-sided
// entries requires an implicit typecast in the C spec. Rows are processed in
// parallel.
func EWiseAddM[T any](a, b *CSR[T], add func(T, T) T, e Exec) *CSR[T] {
	return rowwise(a.Rows, a.Cols, e.workers(a.NNZ()+b.NNZ()),
		func(lo, hi int) int { return a.span(lo, hi) + b.span(lo, hi) },
		func(i int, ind []int, val []T) ([]int, []T) { return unionRun(ind, val, a.run(i), b.run(i), add) })
}

// EWiseMultM computes the element-wise "multiplication" T = A ⊗ B: the
// intersection of the two patterns with mul applied to each co-located pair.
// Because no value passes through unchanged, the domains may all differ.
func EWiseMultM[A, B, C any](a *CSR[A], b *CSR[B], mul func(A, B) C, e Exec) *CSR[C] {
	return rowwise(a.Rows, a.Cols, e.workers(a.NNZ()+b.NNZ()),
		func(lo, hi int) int { return min(a.span(lo, hi), b.span(lo, hi)) },
		func(i int, ind []int, val []C) ([]int, []C) { return intersectRun(ind, val, a.run(i), b.run(i), mul) })
}

// samePattern reports whether two sorted index arrays store the same
// positions: one backing array, or equal element by element — a single
// predictable pass, far cheaper than the three-way branch per entry of the
// merge it lets the caller skip.
func samePattern(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	return slices.Equal(a, b)
}

// ewForm names the positions an element-wise loop visits: each vector kernel
// below runs in one of them, through ewFunc.
type ewForm uint8

const (
	ewZip      ewForm = iota // out[k] = x[k] ⊙ y[k]: one pattern
	ewGatherX                // out[k] = x[ind[k]] ⊙ y[k]: x full, ind y's pattern
	ewScatterX               // out[i] = x[i] ⊙ y[k], i = ind[k]: x full
)

// ewFunc runs form through fam, the family loop of op's tag (ewFamily), or
// when there is none through the closure loop, which calls f per position.
func ewFunc[A, B, C any](fam func(Bin, ewForm, []C, []A, []B, []int), op Bin, f func(A, B) C,
	form ewForm, out []C, x []A, y []B, ind []int) {
	if fam != nil {
		fam(op, form, out, x, y, ind)
		return
	}
	switch form {
	case ewZip:
		for k := range out {
			out[k] = f(x[k], y[k])
		}
	case ewGatherX:
		for k, i := range ind {
			out[k] = f(x[i], y[k])
		}
	case ewScatterX:
		for k, i := range ind {
			out[i] = f(x[i], y[k])
		}
	}
}

// ewFamily is the element-wise family loop binLoops holds for an operator
// tagged op over (A, B, C), or nil.
func ewFamily[A, B, C any](op Bin) func(Bin, ewForm, []C, []A, []B, []int) {
	return familyLoop[func(Bin, ewForm, []C, []A, []B, []int)](binLoops[:], op)
}

// EWiseAddV is the vector analogue of EWiseAddM. Two sorted sides with one
// pattern, or two full ones, zip through the family loop op tags into an
// output that shares a's index array (DESIGN.md, "Vector write-back:
// sharing and exact allocation"). Otherwise an indexed side — a bitmap, or
// one that stores every position — is the base the other side, in any form,
// is scattered into (bitmapBase): O(|other side|), into the storage the step
// granted through e, and a union that stores every position comes out in
// the full form. So is a granted sorted side past bitmapCut. a is always
// add's first operand. Two sorted patterns otherwise merge through
// the closure, whose call is not that merge's cost (EXPERIMENTS.md), into
// an output allocated once.
func EWiseAddV[T any](op Bin, a, b *Vec[T], add func(T, T) T, e Exec) *Vec[T] {
	switch {
	case a.NNZ() == 0:
		return b
	case b.NNZ() == 0:
		return a
	case a.Bit == nil && b.Bit == nil && samePattern(a.Ind, b.Ind):
		out := &Vec[T]{N: a.N, Ind: a.Ind, Val: reuseVal[T](e, len(a.Val), nil)}
		ewFunc(ewFamily[T, T, T](op), op, add, ewZip, out.Val, a.Val, b.Val, nil)
		return out
	}
	if out := bitmapBase(e, a, b, b.NNZ()); out != nil {
		return scatterAdd(out, b, add, false)
	}
	if out := bitmapBase(e, b, a, a.NNZ()); out != nil {
		return scatterAdd(out, a, add, true)
	}
	ind, val := makeRun[T](min(len(a.Ind)+len(b.Ind), a.N))
	ind, val = unionRun(ind, val, a.run(), b.run(), add)
	return &Vec[T]{N: a.N, Ind: ind, Val: val}
}

// scatterAdd folds the entries of s into the indexed out in index order —
// s's value as add's first operand when sFirst — and settles the result.
func scatterAdd[T any](out, s *Vec[T], add func(T, T) T, sFirst bool) *Vec[T] {
	scan(s, func(i int, x T) bool {
		out.installAt(i, x, add, sFirst)
		return true
	})
	return installSettled(out)
}

// EWiseMultV is the vector analogue of EWiseMultM. Two dense sides, in any
// form, make a full output, and a dense a is gathered from at a sorted b's
// positions into an output that shares b's index array: the family loops'
// two forms. Any other indexed side is gathered from by a walk over the
// other side (gatherMult); two sorted patterns intersect through the
// closure. The family forms write into the value array the step granted
// through e, when it has their length (reuseVal).
func EWiseMultV[A, B, C any](op Bin, a *Vec[A], b *Vec[B], mul func(A, B) C, e Exec) *Vec[C] {
	fam := ewFamily[A, B, C](op)
	switch {
	case a.dense() && b.dense():
		out := &Vec[C]{N: a.N, Val: reuseVal[C](e, a.N, nil)}
		ewFunc(fam, op, mul, ewZip, out.Val, a.Val, b.Val, nil)
		return out
	case a.dense() && b.Bit == nil:
		out := &Vec[C]{N: a.N, Ind: b.Ind, Val: reuseVal[C](e, len(b.Val), nil)}
		ewFunc(fam, op, mul, ewGatherX, out.Val, a.Val, b.Val, b.Ind)
		return out
	case b.indexed():
		return gatherMult(a, b, mul)
	case a.indexed():
		return gatherMult(b, a, func(y B, x A) C { return mul(x, y) })
	}
	ind, val := makeRun[C](min(len(a.Ind), len(b.Ind)))
	ind, val = intersectRun(ind, val, a.run(), b.run(), mul)
	return &Vec[C]{N: a.N, Ind: ind, Val: val}
}

// gatherMult is EWiseMultV with an indexed b: a walk over a's entries, in
// any form, that gathers from b where it stores the position, into an
// output allocated once at the smaller count.
func gatherMult[A, B, C any](a *Vec[A], b *Vec[B], mul func(A, B) C) *Vec[C] {
	out := &Vec[C]{N: a.N}
	out.Ind, out.Val = makeRun[C](min(a.NNZ(), b.NNZ()))
	scan(a, func(i int, x A) bool {
		if b.has(i) {
			out.Ind, out.Val = append(out.Ind, i), append(out.Val, mul(x, b.Val[i]))
		}
		return true
	})
	return out
}
