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
	ewGatherY                // out[k] = x[k] ⊙ y[ind[k]]: y full, ind x's pattern
	ewScatterX               // out[i] = x[i] ⊙ y[k], i = ind[k]: x full
	ewScatterY               // out[i] = x[k] ⊙ y[i], i = ind[k]: y full
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
	case ewGatherY:
		for k, i := range ind {
			out[k] = f(x[k], y[i])
		}
	case ewScatterX:
		for k, i := range ind {
			out[i] = f(x[i], y[k])
		}
	case ewScatterY:
		for k, i := range ind {
			out[i] = f(x[k], y[i])
		}
	}
}

// ewFamily is the element-wise family loop binLoops holds for an operator
// tagged op over (A, B, C), or nil.
func ewFamily[A, B, C any](op Bin) func(Bin, ewForm, []C, []A, []B, []int) {
	return familyLoop[func(Bin, ewForm, []C, []A, []B, []int)](binLoops[:], op)
}

// EWiseAddV is the vector analogue of EWiseAddM. A union that stores every
// position — one side dense, in any form — is written in the full form, and
// a sorted output's index array is shared with an operand whenever both
// patterns are identical (see DESIGN.md, "Vector write-back: sharing and
// exact allocation"). a is always add's first operand; op tags add for the
// family loops. Two sparse patterns merge through the closure, whose call is
// not that merge's cost (EXPERIMENTS.md). The position forms write into the
// value array the step granted through e, when it has their length
// (reuseVal). With a bitmap side short of full — or a granted sorted side
// past bitmapCut — the other side is scattered into that bitmap
// (bitmapBase), in place when it is the granted one: O(|other side|).
func EWiseAddV[T any](op Bin, a, b *Vec[T], add func(T, T) T, e Exec) *Vec[T] {
	fam := ewFamily[T, T, T](op)
	switch {
	case a.NNZ() == 0:
		return b
	case b.NNZ() == 0:
		return a
	case a.dense() && b.dense():
		out := &Vec[T]{N: a.N, Val: reuseVal[T](e, a.N, nil)}
		ewFunc(fam, op, add, ewZip, out.Val, a.Val, b.Val, nil)
		return out
	case a.dense() && b.Bit == nil:
		out := &Vec[T]{N: a.N, Val: reuseVal(e, a.N, a.Val)}
		ewFunc(fam, op, add, ewScatterX, out.Val, a.Val, b.Val, b.Ind)
		return out
	case b.dense() && a.Bit == nil:
		out := &Vec[T]{N: a.N, Val: reuseVal(e, b.N, b.Val)}
		ewFunc(fam, op, add, ewScatterY, out.Val, a.Val, b.Val, a.Ind)
		return out
	case a.Bit != nil:
		return scatterAdd(bitmapBase(e, a, 0), b, add, false)
	case b.Bit != nil:
		return scatterAdd(bitmapBase(e, b, 0), a, add, true)
	case samePattern(a.Ind, b.Ind):
		out := &Vec[T]{N: a.N, Ind: a.Ind, Val: reuseVal[T](e, len(a.Val), nil)}
		ewFunc(fam, op, add, ewZip, out.Val, a.Val, b.Val, nil)
		return out
	}
	if out := bitmapBase(e, a, b.NNZ()); out != nil {
		return scatterAdd(out, b, add, false)
	}
	if out := bitmapBase(e, b, a.NNZ()); out != nil {
		return scatterAdd(out, a, add, true)
	}
	ind, val := makeRun[T](min(len(a.Ind)+len(b.Ind), a.N))
	ind, val = unionRun(ind, val, a.run(), b.run(), add)
	return &Vec[T]{N: a.N, Ind: ind, Val: val}
}

// scatterAdd folds the entries of s into the bitmap out in index order —
// s's value as add's first operand when sFirst — and settles the result.
func scatterAdd[T any](out, s *Vec[T], add func(T, T) T, sFirst bool) *Vec[T] {
	switch {
	case s.Bit != nil:
		for i, ok := range s.Bit {
			if ok {
				out.installAt(i, s.Val[i], add, sFirst)
			}
		}
	case s.full():
		for i, x := range s.Val {
			out.installAt(i, x, add, sFirst)
		}
	default:
		for k, i := range s.Ind {
			out.installAt(i, s.Val[k], add, sFirst)
		}
	}
	return installSettled(out)
}

// EWiseMultV is the vector analogue of EWiseMultM. Two dense sides, in any
// form, make a full output; a dense side is gathered from at the other
// side's positions, and the output shares the other side's index array —
// as it does an operand's when the two sorted patterns are identical. op
// tags mul for the family loops; two sparse patterns merge through the
// closure. The position forms write into the value array the step granted
// through e, when it has their length (reuseVal). A bitmap side short of
// full is gathered from (bitmapMult).
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
	case b.dense() && a.Bit == nil:
		out := &Vec[C]{N: a.N, Ind: a.Ind, Val: reuseVal[C](e, len(a.Val), nil)}
		ewFunc(fam, op, mul, ewGatherY, out.Val, a.Val, b.Val, a.Ind)
		return out
	case a.Bit != nil || b.Bit != nil: // one a bitmap, neither a dense side beside a sorted one
		return bitmapMult(a, b, mul)
	case samePattern(a.Ind, b.Ind):
		out := &Vec[C]{N: a.N, Ind: a.Ind, Val: reuseVal[C](e, len(a.Val), nil)}
		ewFunc(fam, op, mul, ewZip, out.Val, a.Val, b.Val, nil)
		return out
	}
	ind, val := makeRun[C](min(len(a.Ind), len(b.Ind)))
	ind, val = intersectRun(ind, val, a.run(), b.run(), mul)
	return &Vec[C]{N: a.N, Ind: ind, Val: val}
}

// bitmapMult is EWiseMultV with a bitmap side: a walk over the sorted
// side's entries that gathers from the bitmap or, when the other side is a
// bitmap too or dense, one walk over the positions, into an output allocated
// once at the smaller count.
func bitmapMult[A, B, C any](a *Vec[A], b *Vec[B], mul func(A, B) C) *Vec[C] {
	out := &Vec[C]{N: a.N}
	out.Ind, out.Val = makeRun[C](min(a.NNZ(), b.NNZ()))
	switch {
	case a.Bit == nil && !a.dense():
		for k, i := range a.Ind {
			if b.Bit[i] {
				out.Ind, out.Val = append(out.Ind, i), append(out.Val, mul(a.Val[k], b.Val[i]))
			}
		}
	case b.Bit == nil && !b.dense():
		for k, i := range b.Ind {
			if a.Bit[i] {
				out.Ind, out.Val = append(out.Ind, i), append(out.Val, mul(a.Val[i], b.Val[k]))
			}
		}
	default:
		for i := range a.N {
			if (a.Bit == nil || a.Bit[i]) && (b.Bit == nil || b.Bit[i]) {
				out.Ind, out.Val = append(out.Ind, i), append(out.Val, mul(a.Val[i], b.Val[i]))
			}
		}
	}
	return out
}
