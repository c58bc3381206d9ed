package sparse

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
	colPtr, colPos := invertList(cols, a.Cols)
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
					n += colPtr[c+1] - colPtr[c]
				}
			}
			return n
		},
		func(i int, ind []int, val []T) ([]int, []T) {
			if cols == nil {
				return appendRun(ind, val, a.run(listAt(rows, i)))
			}
			return gatherRun(ind, val, a.run(listAt(rows, i)), colPtr, colPos)
		}), nil
}

// listAt is entry i of an index list; the nil list is GrB_ALL, 0, 1, 2, ….
func listAt(list []int, i int) int {
	if list == nil {
		return i
	}
	return list[i]
}

// invertList inverts an index list over [0, n) by counting sort, as Bucket
// does rows: index c is listed at the positions pos[ptr[c]:ptr[c+1]], in
// increasing order. A nil list has no inverse.
func invertList(list []int, n int) (ptr, pos []int) {
	if list == nil {
		return nil, nil
	}
	ptr, pos = make([]int, n+1), make([]int, len(list))
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
	return ptr, pos
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
