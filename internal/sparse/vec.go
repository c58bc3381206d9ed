package sparse

import (
	"errors"
	"slices"
	"sort"
	"sync/atomic"
)

// Vec is a generic sparse vector in sorted-coordinate form: Ind holds the
// positions of stored entries in strictly increasing order and Val the
// corresponding values. Kernels return a fresh Vec, but its Ind may be an
// operand's Ind — the same backing array — when the pattern is unchanged
// (DESIGN.md, "Vector write-back: sharing and exact allocation"); nothing
// writes an Ind once it is built. Val is the output's own, and is written
// again only by the drain that supersedes it, when Holds shows that nothing
// else can read it (DESIGN.md, "Writing into superseded storage").
type Vec[T any] struct {
	N   int
	Ind []int
	Val []T

	// dv memoizes the bitmap/dense block view of this vector (see
	// DenseView). Same coherence argument as CSR.tr: a snapshot's values do
	// not change while anyone can read it, and every grb-layer mutation
	// installs a fresh snapshot whose cache starts empty, so a cached view
	// can never go stale. A full vector's view is its Val, never memoized.
	dv atomic.Pointer[DenseVec[T]]

	Holds
}

// Holds is the grb layer's ledger of who can read a vector snapshot: a count
// of readers (pending operations that took it as an operand, a synchronous
// reader while it reads) and a mark saying whether Val is its object's own.
// All methods are nil-safe, so a matrix, which never lends, passes nil.
type Holds struct {
	readers atomic.Int32
	mark    atomic.Uint32
}

const (
	holdFree   = iota // a fresh result no object has installed yet
	holdOwned         // the object's own drain allocated Val
	holdPinned        // a second holder keeps the storage beyond any count
)

// Lend counts one more reader.
func (h *Holds) Lend() {
	if h != nil {
		h.readers.Add(1)
	}
}

// Release drops a reader Lend counted.
func (h *Holds) Release() {
	if h != nil {
		h.readers.Add(-1)
	}
}

// Pin marks the storage held beyond any count: it is never written again.
func (h *Holds) Pin() {
	if h != nil {
		h.mark.Store(holdPinned)
	}
}

// Claim is called when a drain installs the snapshot in place of cur. A
// fresh result becomes the object's own; anything else a kernel returned
// (an operand, as u ⊕ ∅ returns u) is another holder's too, and is pinned.
func (h *Holds) Claim(cur *Holds) {
	if h != nil && h != cur && (h.readers.Load() != 0 || !h.mark.CompareAndSwap(holdFree, holdOwned)) {
		h.Pin()
	}
}

// Sole reports whether Val is its object's own and the caller's lend is its
// one reader: the drain holding that lend may write into Val.
func (h *Holds) Sole() bool {
	return h != nil && h.mark.Load() == holdOwned && h.readers.Load() == 1
}

// reuseVal returns an n-entry value array for a kernel's output, holding a
// copy of init if init is non-nil. It is the one door to the step's grant:
// when e.Spare, the snapshot the output supersedes, has an n-entry Val, it
// returns that array (holding old values where init is nil: the caller
// writes every position). A kernel passes its Exec to one call at most.
func reuseVal[T any](e Exec, n int, init []T) []T {
	if old, ok := e.Spare.(*Vec[T]); ok && len(old.Val) == n && n > 0 {
		if len(init) > 0 && &init[0] != &old.Val[0] {
			copy(old.Val, init)
		}
		return old.Val
	}
	if init != nil {
		return slices.Clone(init)
	}
	return make([]T, n) //grblint:ignore budgetcheck -- an output's value array, not scratch
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
