// Package sparse is the sparse linear-algebra substrate underneath the public
// GraphBLAS 2.0 API. It provides generic compressed-sparse-row matrices,
// sorted-coordinate vectors, and the computational kernels (SpGEMM, SpMV,
// element-wise merges, apply/select with index operators, extract, assign,
// reduce, transpose, Kronecker, mask/accumulator application) that the grb
// package wraps with GraphBLAS semantics (masks, accumulators, descriptors,
// modes, contexts).
//
// All structures in this package are treated as immutable once built: kernels
// never mutate their inputs, and allocate their outputs except for the one
// value array the grb layer's step may grant them (reuseVal). The grb layer
// relies on this to snapshot operands for deferred (nonblocking-mode)
// sequences, per §III of the GraphBLAS 2.0 paper.
package sparse

import (
	"errors"
	"slices"
	"sort"
	"sync/atomic"
)

// Errors surfaced by substrate kernels. The grb layer maps these onto
// GraphBLAS Info codes (execution errors, §V of the paper).
var (
	// ErrDuplicate reports duplicate coordinates in a build whose dup
	// operator is nil (GraphBLAS 2.0 §IX: duplicates become an execution
	// error when no dup function is supplied).
	ErrDuplicate = errors.New("sparse: duplicate coordinates with nil dup operator")
	// ErrIndexOutOfBounds reports a coordinate outside the object's shape.
	ErrIndexOutOfBounds = errors.New("sparse: index out of bounds")
	// ErrTooLarge reports a result whose shape or entry count overflows the
	// int range (e.g. a Kronecker product of huge operands). The grb layer
	// maps this onto GrB_OUT_OF_MEMORY.
	ErrTooLarge = errors.New("sparse: result dimensions or nnz overflow")
)

// CSR is a generic compressed-sparse-row matrix. Column indices within each
// row are sorted and unique. Ptr has length Rows+1; row i occupies
// Ind[Ptr[i]:Ptr[i+1]] and Val[Ptr[i]:Ptr[i+1]].
type CSR[T any] struct {
	Rows, Cols int
	Ptr        []int
	Ind        []int
	Val        []T

	// tr memoizes the transpose of this matrix (see TransposeCached). It
	// piggybacks on the immutable-on-write contract: a CSR never changes
	// after it is built, and every mutation in the grb layer installs a
	// freshly built CSR whose cache starts empty, so a cached transpose can
	// never go stale. Atomic so concurrent readers of a completed object
	// share the view without locks.
	tr atomic.Pointer[CSR[T]]
}

// NewCSR returns an empty rows×cols matrix.
func NewCSR[T any](rows, cols int) *CSR[T] {
	return &CSR[T]{Rows: rows, Cols: cols, Ptr: make([]int, rows+1)}
}

// NNZ returns the number of stored entries.
func (m *CSR[T]) NNZ() int { return len(m.Ind) }

// Row returns the column-index and value slices of row i (views, do not
// mutate).
func (m *CSR[T]) Row(i int) ([]int, []T) {
	lo, hi := m.Ptr[i], m.Ptr[i+1]
	return m.Ind[lo:hi], m.Val[lo:hi]
}

// rowIn returns the entries of row i whose columns lie in [lo, hi): the whole
// row when that is every column, else the slice two binary searches bound.
func (m *CSR[T]) rowIn(i, lo, hi int) ([]int, []T) {
	ind, val := m.Row(i)
	if lo == 0 && hi == m.Cols {
		return ind, val
	}
	s := sort.SearchInts(ind, lo)
	e := s + sort.SearchInts(ind[s:], hi)
	return ind[s:e], val[s:e]
}

// Clone returns a deep copy.
func (m *CSR[T]) Clone() *CSR[T] {
	c := &CSR[T]{Rows: m.Rows, Cols: m.Cols,
		Ptr: make([]int, len(m.Ptr)),
		Ind: make([]int, len(m.Ind)),
		Val: make([]T, len(m.Val))}
	copy(c.Ptr, m.Ptr)
	copy(c.Ind, m.Ind)
	copy(c.Val, m.Val)
	return c
}

// Get returns the entry at (i, j) and whether it is present. Callers must
// have validated 0 <= i < Rows, 0 <= j < Cols.
func (m *CSR[T]) Get(i, j int) (T, bool) {
	ind, val := m.Row(i)
	k := sort.SearchInts(ind, j)
	if k < len(ind) && ind[k] == j {
		return val[k], true
	}
	var zero T
	return zero, false
}

// Tuples appends the (row, col, value) triples of m in row-major order to the
// provided slices and returns them. Pass nils to allocate fresh slices. A
// slice short of room grows once, to exactly NNZ more; the columns and values
// are Ind and Val as stored.
func (m *CSR[T]) Tuples(I, J []int, X []T) ([]int, []int, []T) {
	I = growExact(I, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for range m.Ptr[i+1] - m.Ptr[i] {
			I = append(I, i)
		}
	}
	return I, append(growExact(J, m.NNZ()), m.Ind...), append(growExact(X, m.NNZ()), m.Val...)
}

// growExact returns s with room for n more elements. Unlike slices.Grow,
// which rounds up to the allocator's size class, a short s moves to an array
// of exactly len(s)+n.
func growExact[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]E, 0, len(s)+n), s...)
}

// Valid performs an internal-consistency check, used by tests and by the
// grb layer's InvalidObject detection.
func (m *CSR[T]) Valid() bool {
	if m.Rows < 0 || m.Cols < 0 || len(m.Ptr) != m.Rows+1 {
		return false
	}
	if m.Ptr[0] != 0 || m.Ptr[m.Rows] != len(m.Ind) || len(m.Ind) != len(m.Val) {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		if m.Ptr[i] < 0 || m.Ptr[i] > m.Ptr[i+1] || m.Ptr[i+1] > len(m.Ind) {
			return false
		}
	}
	for i := 0; i < m.Rows; i++ {
		ind, _ := m.Row(i)
		for k := range ind {
			if ind[k] < 0 || ind[k] >= m.Cols {
				return false
			}
			if k > 0 && ind[k-1] >= ind[k] {
				return false
			}
		}
	}
	return true
}

// BuildCSR constructs a rows×cols CSR matrix from coordinate triples
// (I[k], J[k], X[k]). Duplicate coordinates are combined with dup (first
// argument is the earlier value in input order); if dup is nil, duplicates
// yield ErrDuplicate — the GraphBLAS 2.0 §IX behaviour where the dup operator
// became optional and its absence turns duplicates into an execution error.
// It is Bucket followed by Fold.
func BuildCSR[T any](rows, cols int, I, J []int, X []T, dup func(T, T) T) (*CSR[T], error) {
	b, err := Bucket(rows, cols, I, J, X)
	if err != nil {
		return nil, err
	}
	return b.Fold(dup)
}

// Bucketed is a build caught between its two passes: every tuple sits in its
// row, in input order, in storage of its own, but rows are neither sorted
// nor free of duplicates. Fold is the only thing to do with it.
type Bucketed[T any] struct{ m *CSR[T] }

// Bucket is the O(n) half of BuildCSR, a counting sort by row: count the
// rows, prefix-sum the counts into Ptr, scatter (J[k], X[k]) to the next free
// slot of row I[k]. It checks every coordinate and reads I, J and X for the
// last time, so a caller may change them once it returns.
func Bucket[T any](rows, cols int, I, J []int, X []T) (Bucketed[T], error) {
	n := len(I)
	if len(J) != n || len(X) != n {
		return Bucketed[T]{}, errors.New("sparse: build slices have unequal lengths")
	}
	m := &CSR[T]{Rows: rows, Cols: cols,
		Ptr: make([]int, rows+1),
		Ind: make([]int, n),
		Val: make([]T, n)}
	for k, i := range I {
		if i < 0 || i >= rows || J[k] < 0 || J[k] >= cols {
			return Bucketed[T]{}, ErrIndexOutOfBounds
		}
		m.Ptr[i+1]++
	}
	// Ptr[i+1] goes from row i's count to row i's start; the scatter advances
	// it to row i's end, which is where it has to be.
	start := 0
	for i := 1; i <= rows; i++ {
		start, m.Ptr[i] = start+m.Ptr[i], start
	}
	for k, i := range I {
		p := m.Ptr[i+1]
		m.Ind[p], m.Val[p] = J[k], X[k]
		m.Ptr[i+1] = p + 1
	}
	return Bucketed[T]{m}, nil
}

// insertionSortMax is the longest row sorted by insertion; longer ones go to
// sort.Stable, whose n·log²n bound is what keeps one huge row from costing
// n². Measured on one row that is a random permutation, insertion against
// sort.Stable over the pair sorter: 0.8 against 5.0 µs at 64 entries, 19
// against 33 at 256, 75 against 86 at 512, 327 against 319 at 1 024, 5 188
// against 1 740 at 4 096. They cross near 1 000 and a reversed row costs
// insertion twice a random one, hence 512. BenchmarkBuildCSR/shuffled
// (rmat-14, 121 262 tuples) reads 15.0 ms at 16, 13.6 at 32, 13.2 at 64,
// 10.3 at 512 and 10.8 with no cutoff at all.
const insertionSortMax = 512

// Fold is the per-row half of BuildCSR: each row that is not already strictly
// ascending is sorted by column, stably, and its duplicates are combined left
// to right in input order with dup (ErrDuplicate if dup is nil); rows are
// compacted in place as duplicates go. The Bucketed is spent afterwards.
func (b Bucketed[T]) Fold(dup func(T, T) T) (*CSR[T], error) {
	m := b.m
	w, lo := 0, 0 // next slot to write; start of the row being read
	for i := 0; i < m.Rows; i++ {
		hi := m.Ptr[i+1]
		ind, val := m.Ind[lo:hi], m.Val[lo:hi]
		ascending := true
		for k := 1; k < len(ind); k++ {
			if ind[k-1] >= ind[k] {
				ascending = false
				break
			}
		}
		switch {
		case ascending && w == lo:
			w = hi // in order, nothing to close up: the common case
		case ascending:
			w += copy(m.Ind[w:], ind)
			copy(m.Val[w-len(ind):], val)
		default:
			SortRow(ind, val)
			first := w
			for k, j := range ind {
				if w > first && m.Ind[w-1] == j {
					if dup == nil {
						return nil, ErrDuplicate
					}
					m.Val[w-1] = dup(m.Val[w-1], val[k])
					continue
				}
				m.Ind[w], m.Val[w] = j, val[k]
				w++
			}
		}
		m.Ptr[i+1] = w
		lo = hi
	}
	m.Ind, m.Val = m.Ind[:w], m.Val[:w]
	DebugCheckCSR(m, "BuildCSR")
	return m, nil
}

// SortRow sorts one row's (column, value) pairs by column, keeping equal
// columns in input order: by insertion up to insertionSortMax entries, by
// sort.Stable beyond (unless already in order, which costs one pass to see).
// It is the one row sorter — of the build's fold, of gatherRun, and of the
// import of unsorted CSR/CSC arrays.
func SortRow[T any](ind []int, val []T) {
	if len(ind) > insertionSortMax {
		if !sort.IntsAreSorted(ind) {
			sort.Stable(&rowSorter[T]{ind, val})
		}
		return
	}
	for k := 1; k < len(ind); k++ {
		j, x := ind[k], val[k]
		p := k
		for ; p > 0 && ind[p-1] > j; p-- {
			ind[p], val[p] = ind[p-1], val[p-1]
		}
		ind[p], val[p] = j, x
	}
}

// rowSorter is SortRow's sort.Interface for long rows.
type rowSorter[T any] struct {
	ind []int
	val []T
}

func (r *rowSorter[T]) Len() int           { return len(r.ind) }
func (r *rowSorter[T]) Less(a, b int) bool { return r.ind[a] < r.ind[b] }
func (r *rowSorter[T]) Swap(a, b int) {
	r.ind[a], r.ind[b] = r.ind[b], r.ind[a]
	r.val[a], r.val[b] = r.val[b], r.val[a]
}

// Tuple is a pending coordinate update: set (Del=false) or delete (Del=true).
// The grb layer accumulates setElement/removeElement calls as Tuples and
// merges them lazily, which is what lets a GraphBLAS sequence defer work in
// nonblocking mode.
type Tuple[T any] struct {
	Row, Col int
	Val      T
	Del      bool
}

// MergeTuples folds a list of pending updates into m, later updates winning
// over earlier ones and over existing entries (setElement semantics).
// Deletions remove entries. Returns a fresh matrix.
func MergeTuples[T any](m *CSR[T], tuples []Tuple[T]) (*CSR[T], error) {
	if len(tuples) == 0 {
		return m, nil
	}
	for _, t := range tuples {
		if t.Row < 0 || t.Row >= m.Rows || t.Col < 0 || t.Col >= m.Cols {
			return nil, ErrIndexOutOfBounds
		}
	}
	ts := sortedTuples(slices.Clone(tuples))
	out := NewCSR[T](m.Rows, m.Cols)
	ind, val := makeRun[T](len(m.Ind) + len(ts))
	for i := 0; i < m.Rows; i++ {
		n := 0 // row i's updates are ts[:n]
		for n < len(ts) && ts[n].Row == i {
			n++
		}
		ind, val = tupleRun(ind, val, m.run(i), ts[:n])
		ts = ts[n:]
		out.Ptr[i+1] = len(ind)
	}
	out.Ind, out.Val = ind, val
	DebugCheckCSR(out, "MergeTuples")
	return out, nil
}

// Resize returns a copy of m with the new shape. Entries outside the new
// shape are dropped; growing adds empty space (GrB_Matrix_resize semantics).
func (m *CSR[T]) Resize(rows, cols int) *CSR[T] {
	keep := min(rows, m.Rows)
	return rowwise(rows, cols, 1,
		func(lo, hi int) int { return m.span(min(lo, keep), min(hi, keep)) },
		func(i int, ind []int, val []T) ([]int, []T) {
			if i >= keep {
				return ind, val
			}
			row := m.run(i)
			k := sort.SearchInts(row.ind, cols)
			return append(ind, row.ind[:k]...), append(val, row.val[:k]...)
		})
}

// EqualFunc reports whether a and b have identical shape, pattern, and
// values under eq.
func EqualFunc[T any](a, b *CSR[T], eq func(T, T) bool) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.Ptr {
		if a.Ptr[i] != b.Ptr[i] {
			return false
		}
	}
	for k := range a.Ind {
		if a.Ind[k] != b.Ind[k] || !eq(a.Val[k], b.Val[k]) {
			return false
		}
	}
	return true
}
