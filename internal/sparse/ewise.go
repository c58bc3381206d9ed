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

// EWiseAddV is the vector analogue of EWiseAddM. The output's index array is
// shared with an operand whenever the union pattern equals that operand's
// (see DESIGN.md, "Vector write-back: sharing and exact allocation"): both
// patterns identical, or one side full. Indices are strictly increasing in
// [0, N), so len(Ind) == N is the full test. a is always add's first
// operand.
func EWiseAddV[T any](a, b *Vec[T], add func(T, T) T) *Vec[T] {
	switch {
	case len(a.Ind) == 0:
		return b
	case len(b.Ind) == 0:
		return a
	case samePattern(a.Ind, b.Ind, a.N):
		out := &Vec[T]{N: a.N, Ind: a.Ind, Val: make([]T, len(a.Val))}
		for k := range out.Val {
			out.Val[k] = add(a.Val[k], b.Val[k])
		}
		return out
	case len(a.Ind) == a.N:
		out := &Vec[T]{N: a.N, Ind: a.Ind, Val: slices.Clone(a.Val)}
		for k, i := range b.Ind {
			out.Val[i] = add(a.Val[i], b.Val[k])
		}
		return out
	case len(b.Ind) == b.N:
		out := &Vec[T]{N: a.N, Ind: b.Ind, Val: slices.Clone(b.Val)}
		for k, i := range a.Ind {
			out.Val[i] = add(a.Val[k], b.Val[i])
		}
		return out
	}
	ind, val := makeRun[T](min(len(a.Ind)+len(b.Ind), a.N))
	ind, val = unionRun(ind, val, a.run(), b.run(), add)
	return &Vec[T]{N: a.N, Ind: ind, Val: val}
}

// EWiseMultV is the vector analogue of EWiseMultM. The intersection pattern
// equals an operand's — whose index array the output then shares — when the
// two patterns are identical or the other side is full.
func EWiseMultV[A, B, C any](a *Vec[A], b *Vec[B], mul func(A, B) C) *Vec[C] {
	switch {
	case samePattern(a.Ind, b.Ind, a.N):
		out := &Vec[C]{N: a.N, Ind: a.Ind, Val: make([]C, len(a.Val))}
		for k := range out.Val {
			out.Val[k] = mul(a.Val[k], b.Val[k])
		}
		return out
	case len(a.Ind) == a.N:
		out := &Vec[C]{N: a.N, Ind: b.Ind, Val: make([]C, len(b.Val))}
		for k, i := range b.Ind {
			out.Val[k] = mul(a.Val[i], b.Val[k])
		}
		return out
	case len(b.Ind) == b.N:
		out := &Vec[C]{N: a.N, Ind: a.Ind, Val: make([]C, len(a.Val))}
		for k, i := range a.Ind {
			out.Val[k] = mul(a.Val[k], b.Val[i])
		}
		return out
	}
	ind, val := makeRun[C](min(len(a.Ind), len(b.Ind)))
	ind, val = intersectRun(ind, val, a.run(), b.run(), mul)
	return &Vec[C]{N: a.N, Ind: ind, Val: val}
}
