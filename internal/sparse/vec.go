package sparse

import (
	"errors"
	"slices"
	"sort"
	"sync/atomic"
)

// Vec is a generic sparse vector in sorted-coordinate form: Ind holds the
// positions of stored entries in strictly increasing order and Val the
// corresponding values. Like CSR it is immutable-on-write: nothing writes a
// Vec's storage once it is built. Kernels return a fresh Vec, but its Ind
// may be an operand's Ind — the same backing array — when the pattern is
// unchanged (DESIGN.md, "Vector write-back: sharing and exact allocation");
// Val is always the output's own.
type Vec[T any] struct {
	N   int
	Ind []int
	Val []T

	// dv memoizes the bitmap/dense block view of this vector (see
	// DenseView). Same coherence argument as CSR.tr: vectors never change
	// after they are built and every grb-layer mutation installs a fresh
	// snapshot whose cache starts empty, so a cached view can never go
	// stale.
	dv atomic.Pointer[DenseVec[T]]
}

// NewVec returns an empty vector of size n.
func NewVec[T any](n int) *Vec[T] { return &Vec[T]{N: n} }

// NNZ returns the number of stored entries.
func (v *Vec[T]) NNZ() int { return len(v.Ind) }

// Clone returns a deep copy.
func (v *Vec[T]) Clone() *Vec[T] {
	c := &Vec[T]{N: v.N, Ind: make([]int, len(v.Ind)), Val: make([]T, len(v.Val))}
	copy(c.Ind, v.Ind)
	copy(c.Val, v.Val)
	return c
}

// Get returns the entry at i and whether it is present.
func (v *Vec[T]) Get(i int) (T, bool) {
	k := sort.SearchInts(v.Ind, i)
	if k < len(v.Ind) && v.Ind[k] == i {
		return v.Val[k], true
	}
	var zero T
	return zero, false
}

// Valid performs an internal-consistency check.
func (v *Vec[T]) Valid() bool {
	if v.N < 0 || len(v.Ind) != len(v.Val) {
		return false
	}
	for k := range v.Ind {
		if v.Ind[k] < 0 || v.Ind[k] >= v.N {
			return false
		}
		if k > 0 && v.Ind[k-1] >= v.Ind[k] {
			return false
		}
	}
	return true
}

// BuildVec constructs a size-n vector from coordinate pairs (I[k], X[k]).
// Duplicates are combined with dup; a nil dup makes duplicates an error,
// matching GraphBLAS 2.0 §IX.
func BuildVec[T any](n int, I []int, X []T, dup func(T, T) T) (*Vec[T], error) {
	if len(I) != len(X) {
		return nil, errors.New("sparse: build slices have unequal lengths")
	}
	for _, i := range I {
		if i < 0 || i >= n {
			return nil, ErrIndexOutOfBounds
		}
	}
	perm := make([]int, len(I))
	for k := range perm {
		perm[k] = k
	}
	sort.SliceStable(perm, func(a, b int) bool { return I[perm[a]] < I[perm[b]] })
	v := &Vec[T]{N: n, Ind: make([]int, 0, len(I)), Val: make([]T, 0, len(I))}
	for s := 0; s < len(perm); {
		k := perm[s]
		i, x := I[k], X[k]
		s++
		for s < len(perm) && I[perm[s]] == i {
			if dup == nil {
				return nil, ErrDuplicate
			}
			x = dup(x, X[perm[s]])
			s++
		}
		v.Ind = append(v.Ind, i)
		v.Val = append(v.Val, x)
	}
	DebugCheckVec(v, "BuildVec")
	return v, nil
}

// VTuple is a pending vector update (see Tuple).
type VTuple[T any] struct {
	Idx int
	Val T
	Del bool
}

// MergeVTuples folds pending updates into v, later updates winning.
func MergeVTuples[T any](v *Vec[T], tuples []VTuple[T]) (*Vec[T], error) {
	if len(tuples) == 0 {
		return v, nil
	}
	for _, t := range tuples {
		if t.Idx < 0 || t.Idx >= v.N {
			return nil, ErrIndexOutOfBounds
		}
	}
	row := make([]Tuple[T], len(tuples)) // the one-row case of MergeTuples
	for k, t := range tuples {
		row[k] = Tuple[T]{Col: t.Idx, Val: t.Val, Del: t.Del}
	}
	row = sortedTuples(row)
	ind, val := makeRun[T](len(v.Ind) + len(row))
	ind, val = tupleRun(ind, val, v.run(), row)
	out := &Vec[T]{N: v.N, Ind: ind, Val: val}
	DebugCheckVec(out, "MergeVTuples")
	return out, nil
}

// Resize returns a copy of v with the new size (entries beyond n dropped).
func (v *Vec[T]) Resize(n int) *Vec[T] {
	k := sort.SearchInts(v.Ind, n)
	out := &Vec[T]{N: n, Ind: slices.Clone(v.Ind[:k]), Val: slices.Clone(v.Val[:k])}
	DebugCheckVec(out, "Vec.Resize")
	return out
}

// GatherVec compresses a dense value slice plus presence bitmap back into a
// sorted sparse vector, counting first so that Ind and Val are allocated once.
func GatherVec[T any](dv []T, ok []bool) *Vec[T] {
	n := 0
	for _, present := range ok {
		if present {
			n++
		}
	}
	out := &Vec[T]{N: len(dv)}
	out.Ind, out.Val = makeRun[T](n)
	for i := range dv {
		if ok[i] {
			out.Ind = append(out.Ind, i)
			out.Val = append(out.Val, dv[i])
		}
	}
	DebugCheckVec(out, "GatherVec")
	return out
}

// VecEqualFunc reports whether a and b are identical under eq.
func VecEqualFunc[T any](a, b *Vec[T], eq func(T, T) bool) bool {
	if a.N != b.N || a.NNZ() != b.NNZ() {
		return false
	}
	for k := range a.Ind {
		if a.Ind[k] != b.Ind[k] || !eq(a.Val[k], b.Val[k]) {
			return false
		}
	}
	return true
}

// VecTuples appends (index, value) pairs of v to I, X and returns them.
func (v *Vec[T]) VecTuples(I []int, X []T) ([]int, []T) {
	I = append(I, v.Ind...)
	X = append(X, v.Val...)
	return I, X
}
