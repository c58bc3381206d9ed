package sparse

import (
	"slices"

	"github.com/grblas/grb/internal/parallel"
)

// mergeUnionM computes the set-union merge of two same-domain matrices,
// combining entries present in both with add. Rows are processed in
// parallel.
func mergeUnionM[T any](a, b *CSR[T], add func(T, T) T, threads int) *CSR[T] {
	out := NewCSR[T](a.Rows, a.Cols)
	parts := parallel.Ranges(a.Rows, threads)
	nparts := len(parts) - 1
	pInd := make([][]int, nparts)
	pVal := make([][]T, nparts)
	rowLen := make([]int, a.Rows)
	parallel.Run(parts, threads, func(part, lo, hi int) {
		n := a.Ptr[hi] - a.Ptr[lo] + b.Ptr[hi] - b.Ptr[lo] // the union's bound
		ind := make([]int, 0, n)
		val := make([]T, 0, n)
		for i := lo; i < hi; i++ {
			aInd, aVal := a.Row(i)
			bInd, bVal := b.Row(i)
			start := len(ind)
			ai, bi := 0, 0
			for ai < len(aInd) || bi < len(bInd) {
				switch {
				case bi >= len(bInd) || (ai < len(aInd) && aInd[ai] < bInd[bi]):
					ind = append(ind, aInd[ai])
					val = append(val, aVal[ai])
					ai++
				case ai >= len(aInd) || bInd[bi] < aInd[ai]:
					ind = append(ind, bInd[bi])
					val = append(val, bVal[bi])
					bi++
				default:
					ind = append(ind, aInd[ai])
					val = append(val, add(aVal[ai], bVal[bi]))
					ai++
					bi++
				}
			}
			rowLen[i] = len(ind) - start
		}
		pInd[part] = ind
		pVal[part] = val
	})
	installStitched(out, pInd, pVal, rowLen)
	return out
}

// EWiseAddM computes the element-wise "addition" T = A ⊕ B: the union of the
// two patterns, with add applied where both inputs have an entry and the
// single value passed through otherwise (GraphBLAS eWiseAdd). The Go binding
// restricts eWiseAdd to a single domain because pass-through of one-sided
// entries requires an implicit typecast in the C spec.
func EWiseAddM[T any](a, b *CSR[T], add func(T, T) T, threads int) *CSR[T] {
	return mergeUnionM(a, b, add, threads)
}

// EWiseMultM computes the element-wise "multiplication" T = A ⊗ B: the
// intersection of the two patterns with mul applied to each co-located pair.
// Because no value passes through unchanged, the domains may all differ.
func EWiseMultM[A, B, C any](a *CSR[A], b *CSR[B], mul func(A, B) C, threads int) *CSR[C] {
	out := NewCSR[C](a.Rows, a.Cols)
	parts := parallel.Ranges(a.Rows, threads)
	nparts := len(parts) - 1
	pInd := make([][]int, nparts)
	pVal := make([][]C, nparts)
	rowLen := make([]int, a.Rows)
	parallel.Run(parts, threads, func(part, lo, hi int) {
		n := min(a.Ptr[hi]-a.Ptr[lo], b.Ptr[hi]-b.Ptr[lo]) // the intersection's bound
		ind := make([]int, 0, n)
		val := make([]C, 0, n)
		for i := lo; i < hi; i++ {
			aInd, aVal := a.Row(i)
			bInd, bVal := b.Row(i)
			start := len(ind)
			ai, bi := 0, 0
			for ai < len(aInd) && bi < len(bInd) {
				switch {
				case aInd[ai] < bInd[bi]:
					ai++
				case bInd[bi] < aInd[ai]:
					bi++
				default:
					ind = append(ind, aInd[ai])
					val = append(val, mul(aVal[ai], bVal[bi]))
					ai++
					bi++
				}
			}
			rowLen[i] = len(ind) - start
		}
		pInd[part] = ind
		pVal[part] = val
	})
	installStitched(out, pInd, pVal, rowLen)
	return out
}

// samePattern reports whether two index arrays store the same positions:
// one backing array, or equal element by element — a single predictable
// pass, far cheaper than the three-way branch per entry of the merge it
// lets the caller skip.
func samePattern(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
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
	case samePattern(a.Ind, b.Ind):
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
	n := min(len(a.Ind)+len(b.Ind), a.N)
	out := &Vec[T]{N: a.N, Ind: make([]int, 0, n), Val: make([]T, 0, n)}
	ai, bi := 0, 0
	for ai < len(a.Ind) || bi < len(b.Ind) {
		switch {
		case bi >= len(b.Ind) || (ai < len(a.Ind) && a.Ind[ai] < b.Ind[bi]):
			out.Ind = append(out.Ind, a.Ind[ai])
			out.Val = append(out.Val, a.Val[ai])
			ai++
		case ai >= len(a.Ind) || b.Ind[bi] < a.Ind[ai]:
			out.Ind = append(out.Ind, b.Ind[bi])
			out.Val = append(out.Val, b.Val[bi])
			bi++
		default:
			out.Ind = append(out.Ind, a.Ind[ai])
			out.Val = append(out.Val, add(a.Val[ai], b.Val[bi]))
			ai++
			bi++
		}
	}
	return out
}

// EWiseMultV is the vector analogue of EWiseMultM. The intersection pattern
// equals an operand's — whose index array the output then shares — when the
// two patterns are identical or the other side is full.
func EWiseMultV[A, B, C any](a *Vec[A], b *Vec[B], mul func(A, B) C) *Vec[C] {
	switch {
	case samePattern(a.Ind, b.Ind):
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
	n := min(len(a.Ind), len(b.Ind))
	out := &Vec[C]{N: a.N, Ind: make([]int, 0, n), Val: make([]C, 0, n)}
	ai, bi := 0, 0
	for ai < len(a.Ind) && bi < len(b.Ind) {
		switch {
		case a.Ind[ai] < b.Ind[bi]:
			ai++
		case b.Ind[bi] < a.Ind[ai]:
			bi++
		default:
			out.Ind = append(out.Ind, a.Ind[ai])
			out.Val = append(out.Val, mul(a.Val[ai], b.Val[bi]))
			ai++
			bi++
		}
	}
	return out
}
