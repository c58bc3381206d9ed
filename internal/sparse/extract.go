package sparse

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// ExtractM computes the submatrix T = A(rows, cols): T is
// len(rows)×len(cols) with T(i,j) = A(rows[i], cols[j]). A nil index slice
// means "all indices" (GrB_ALL). Index lists may contain duplicates and be
// unsorted, per the C spec. Returns ErrIndexOutOfBounds on invalid indices.
// A panic inside the fan-out (a faulty user operator, an injected fault)
// parks as an error instead of crossing the API boundary.
func ExtractM[T any](a *CSR[T], rows, cols []int, e Exec) (out *CSR[T], err error) {
	defer recoverExec(&err)
	outRows := a.Rows
	if rows != nil {
		outRows = len(rows)
		for _, r := range rows {
			if r < 0 || r >= a.Rows {
				return nil, ErrIndexOutOfBounds
			}
		}
	}
	outCols := a.Cols
	if cols != nil {
		outCols = len(cols)
		for _, c := range cols {
			if c < 0 || c >= a.Cols {
				return nil, ErrIndexOutOfBounds
			}
		}
	}
	probes := a.NNZ() // one lookup per entry of the listed rows
	if rows != nil {
		probes = listedWork(a.Ptr, rows, 0, math.MaxInt)
	}
	inv := invertList(cols, a.Cols, probes)
	return rowwise(outRows, outCols, e.workers(a.NNZ()),
		func(lo, hi int) int {
			// A source entry lands once per listed copy of its column.
			n := 0
			for i := lo; i < hi; i++ {
				row := a.run(listAt(rows, i))
				if cols == nil {
					n += len(row.ind)
					continue
				}
				for _, c := range row.ind {
					lo, hi := inv.span(c)
					n += hi - lo
				}
			}
			return n
		},
		func(i int, ind []int, val []T) ([]int, []T) {
			if cols == nil {
				return appendRun(ind, val, a.run(listAt(rows, i)))
			}
			return gatherRun(ind, val, a.run(listAt(rows, i)), inv)
		}), nil
}

// listAt is entry i of an index list; the nil list is GrB_ALL, 0, 1, 2, ….
func listAt(list []int, i int) int {
	if list == nil {
		return i
	}
	return list[i]
}

// inverse maps a source index c to the target positions pos[lo:hi] of
// span(c), in increasing order: through the row pointers ptr of a counting
// sort, by binary search in the sorted keys key, or — both nil — as the
// direct map c → pos[c].
type inverse struct {
	ptr, key, pos []int
}

func (v inverse) span(c int) (lo, hi int) {
	switch {
	case v.ptr != nil:
		return v.ptr[c], v.ptr[c+1]
	case v.key != nil:
		lo = sort.SearchInts(v.key, c)
		return lo, lo + sort.SearchInts(v.key[lo:], c+1)
	}
	return c, c + 1
}

// invertList inverts an index list over [0, n) for probes lookups, by the
// cheaper of two ways: a counting sort, as Bucket does rows, costs the n+1
// row pointers and one step a lookup; sorting the (index, position) pairs
// costs ~len·⌈log₂ len⌉ and a binary search a lookup. So a list short
// against n, such as an ego net's vertices, is sorted. A nil list has no
// inverse.
func invertList(list []int, n, probes int) inverse {
	lg := bits.Len(uint(len(list)))
	switch {
	case list == nil:
		return inverse{}
	case (len(list)+probes)*lg >= n+probes || n > math.MaxInt/max(len(list), 1):
		return countInverse(list, n)
	}
	return sortInverse(list)
}

// sortInverse inverts list, len(list)·max(list) below MaxInt, by sorting
// index·len + position: one pdqsort of ints, stable by construction.
func sortInverse(list []int) inverse {
	l := len(list)
	pos, key := make([]int, l), make([]int, l)
	for j, c := range list {
		pos[j] = c*l + j
	}
	slices.Sort(pos)
	for k, p := range pos {
		key[k], pos[k] = p/l, p%l
	}
	return inverse{key: key, pos: pos}
}

// countInverse inverts list over [0, n) by counting sort.
func countInverse(list []int, n int) inverse {
	ptr, pos := make([]int, n+1), make([]int, len(list))
	for _, c := range list {
		ptr[c+1]++
	}
	start := 0
	for c := 1; c <= n; c++ {
		start, ptr[c] = start+ptr[c], start
	}
	for j, c := range list {
		pos[ptr[c+1]] = j
		ptr[c+1]++
	}
	return inverse{ptr: ptr, pos: pos}
}

// ExtractV computes the subvector t = u(idx): t has len(idx) entries with
// t(i) = u(idx[i]). A nil idx means all of u.
func ExtractV[T any](u *Vec[T], idx []int) (*Vec[T], error) {
	if idx == nil {
		return u.Clone(), nil
	}
	for _, i := range idx {
		if i < 0 || i >= u.N {
			return nil, ErrIndexOutOfBounds
		}
	}
	hits := 0 // counted first, so the output is allocated once at its size
	for _, src := range idx {
		if _, ok := u.Get(src); ok {
			hits++
		}
	}
	out := &Vec[T]{N: len(idx)}
	out.Ind, out.Val = makeRun[T](hits)
	for i, src := range idx {
		if v, ok := u.Get(src); ok {
			out.Ind = append(out.Ind, i)
			out.Val = append(out.Val, v)
		}
	}
	return out, nil
}

// ExtractColV computes t = A(rows, j): one column of A gathered through a
// row index list (GrB_Col_extract). nil rows means all rows.
func ExtractColV[T any](a *CSR[T], rows []int, j int) (*Vec[T], error) {
	if j < 0 || j >= a.Cols {
		return nil, ErrIndexOutOfBounds
	}
	n := a.Rows
	if rows != nil {
		n = len(rows)
		for _, r := range rows {
			if r < 0 || r >= a.Rows {
				return nil, ErrIndexOutOfBounds
			}
		}
	}
	hits := 0 // counted first, as ExtractV does
	for i := 0; i < n; i++ {
		if _, ok := a.Get(listAt(rows, i), j); ok {
			hits++
		}
	}
	out := &Vec[T]{N: n}
	out.Ind, out.Val = makeRun[T](hits)
	for i := 0; i < n; i++ {
		if v, ok := a.Get(listAt(rows, i), j); ok {
			out.Ind = append(out.Ind, i)
			out.Val = append(out.Val, v)
		}
	}
	return out, nil
}
