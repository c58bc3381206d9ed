package sparse

import (
	"sort"

	"github.com/grblas/grb/internal/parallel"
)

// ExtractM computes the submatrix T = A(rows, cols): T is
// len(rows)×len(cols) with T(i,j) = A(rows[i], cols[j]). A nil index slice
// means "all indices" (GrB_ALL). Index lists may contain duplicates and be
// unsorted, per the C spec. Returns ErrIndexOutOfBounds on invalid indices.
// A panic inside the fan-out (a faulty user operator, an injected fault)
// parks as an error instead of crossing the API boundary.
func ExtractM[T any](a *CSR[T], rows, cols []int, threads int) (out *CSR[T], err error) {
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
	// colPos[c] lists the output columns that source column c feeds.
	var colPos [][]int
	if cols != nil {
		colPos = make([][]int, a.Cols)
		for j, c := range cols {
			colPos[c] = append(colPos[c], j)
		}
	}
	out = NewCSR[T](outRows, outCols)
	parts := parallel.Ranges(outRows, threads)
	nparts := len(parts) - 1
	pInd := make([][]int, nparts)
	pVal := make([][]T, nparts)
	rowLen := make([]int, outRows)
	parallel.Run(parts, threads, func(part, lo, hi int) {
		srcRow := func(i int) int {
			if rows != nil {
				return rows[i]
			}
			return i
		}
		// Count the range's output first (a source entry lands once per
		// listed copy of its column), so it is allocated once.
		n := 0
		for i := lo; i < hi; i++ {
			aInd, _ := a.Row(srcRow(i))
			if cols == nil {
				n += len(aInd)
				continue
			}
			for _, c := range aInd {
				n += len(colPos[c])
			}
		}
		ind := make([]int, 0, n)
		val := make([]T, 0, n)
		type pair struct {
			j int
			v T
		}
		var buf []pair
		for i := lo; i < hi; i++ {
			aInd, aVal := a.Row(srcRow(i))
			start := len(ind)
			if cols == nil {
				ind = append(ind, aInd...)
				val = append(val, aVal...)
			} else {
				buf = buf[:0]
				for k := range aInd {
					for _, j := range colPos[aInd[k]] {
						buf = append(buf, pair{j, aVal[k]})
					}
				}
				sort.Slice(buf, func(x, y int) bool { return buf[x].j < buf[y].j })
				for _, p := range buf {
					ind = append(ind, p.j)
					val = append(val, p.v)
				}
			}
			rowLen[i] = len(ind) - start
		}
		pInd[part] = ind
		pVal[part] = val
	})
	installStitched(out, pInd, pVal, rowLen)
	return out, nil
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
	out := &Vec[T]{N: len(idx)}
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
	out := &Vec[T]{N: n}
	for i := 0; i < n; i++ {
		src := i
		if rows != nil {
			src = rows[i]
		}
		if v, ok := a.Get(src, j); ok {
			out.Ind = append(out.Ind, i)
			out.Val = append(out.Val, v)
		}
	}
	return out, nil
}
