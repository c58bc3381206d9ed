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

// samePattern reports whether two index arrays over [0, n) store the same
// positions: both full (indices are strictly increasing in [0, n), so n of
// them can only be 0..n-1), one backing array, or equal element by element —
// a single predictable pass, far cheaper than the three-way branch per entry
// of the merge it lets the caller skip.
func samePattern(a, b []int, n int) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || len(a) == n || &a[0] == &b[0] {
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

// EWiseAddV is the vector analogue of EWiseAddM. The output's index array is
// shared with an operand whenever the union pattern equals that operand's
// (see DESIGN.md, "Vector write-back: sharing and exact allocation"): both
// patterns identical, or one side full. Indices are strictly increasing in
// [0, N), so len(Ind) == N is the full test. a is always add's first
// operand; op tags add for the family loops. Two sparse patterns merge
// through the closure, whose call is not that merge's cost (EXPERIMENTS.md).
func EWiseAddV[T any](op Bin, a, b *Vec[T], add func(T, T) T) *Vec[T] {
	fam := ewFamily[T, T, T](op)
	switch {
	case len(a.Ind) == 0:
		return b
	case len(b.Ind) == 0:
		return a
	case samePattern(a.Ind, b.Ind, a.N):
		out := &Vec[T]{N: a.N, Ind: a.Ind, Val: make([]T, len(a.Val))}
		ewFunc(fam, op, add, ewZip, out.Val, a.Val, b.Val, nil)
		return out
	case len(a.Ind) == a.N:
		out := &Vec[T]{N: a.N, Ind: a.Ind, Val: slices.Clone(a.Val)}
		ewFunc(fam, op, add, ewScatterX, out.Val, a.Val, b.Val, b.Ind)
		return out
	case len(b.Ind) == b.N:
		out := &Vec[T]{N: a.N, Ind: b.Ind, Val: slices.Clone(b.Val)}
		ewFunc(fam, op, add, ewScatterY, out.Val, a.Val, b.Val, a.Ind)
		return out
	}
	ind, val := makeRun[T](min(len(a.Ind)+len(b.Ind), a.N))
	ind, val = unionRun(ind, val, a.run(), b.run(), add)
	return &Vec[T]{N: a.N, Ind: ind, Val: val}
}

// EWiseMultV is the vector analogue of EWiseMultM. The intersection pattern
// equals an operand's — whose index array the output then shares — when the
// two patterns are identical or the other side is full. op tags mul for the
// family loops; two sparse patterns merge through the closure.
func EWiseMultV[A, B, C any](op Bin, a *Vec[A], b *Vec[B], mul func(A, B) C) *Vec[C] {
	fam := ewFamily[A, B, C](op)
	switch {
	case samePattern(a.Ind, b.Ind, a.N):
		out := &Vec[C]{N: a.N, Ind: a.Ind, Val: make([]C, len(a.Val))}
		ewFunc(fam, op, mul, ewZip, out.Val, a.Val, b.Val, nil)
		return out
	case len(a.Ind) == a.N:
		out := &Vec[C]{N: a.N, Ind: b.Ind, Val: make([]C, len(b.Val))}
		ewFunc(fam, op, mul, ewGatherX, out.Val, a.Val, b.Val, b.Ind)
		return out
	case len(b.Ind) == b.N:
		out := &Vec[C]{N: a.N, Ind: a.Ind, Val: make([]C, len(a.Val))}
		ewFunc(fam, op, mul, ewGatherY, out.Val, a.Val, b.Val, a.Ind)
		return out
	}
	ind, val := makeRun[C](min(len(a.Ind), len(b.Ind)))
	ind, val = intersectRun(ind, val, a.run(), b.run(), mul)
	return &Vec[C]{N: a.N, Ind: ind, Val: val}
}
