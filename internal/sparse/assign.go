package sparse

import "sort"

// AssignM computes the "assign region" candidate Z for GrB_assign:
// Z = C with the region (rows × cols) overwritten by A, where
// Z(rows[i], cols[j]) receives A(i,j). Entries of C inside the region that
// have no counterpart in A are deleted when accum is nil (pure assignment)
// and kept when accum is non-nil; co-located entries combine with accum.
// Entries of C outside the region pass through untouched. The caller then
// applies the operation mask over all of Z (GrB_assign's mask spans C).
//
// nil rows/cols mean all indices. A must be len(rows)×len(cols).
func AssignM[T any](c, a *CSR[T], rows, cols []int, accum func(T, T) T) (*CSR[T], error) {
	nr, nc := c.Rows, c.Cols
	if rows != nil {
		nr = len(rows)
	}
	if cols != nil {
		nc = len(cols)
	}
	if a.Rows != nr || a.Cols != nc {
		return nil, ErrIndexOutOfBounds
	}
	// invRow[r] = source row of A assigned to C row r, or -1.
	invRow := make([]int, c.Rows)
	for i := range invRow {
		invRow[i] = -1
	}
	if rows == nil {
		for i := 0; i < c.Rows; i++ {
			invRow[i] = i
		}
	} else {
		for i, r := range rows {
			if r < 0 || r >= c.Rows {
				return nil, ErrIndexOutOfBounds
			}
			invRow[r] = i // duplicates: last occurrence wins
		}
	}
	inCol := make([]bool, c.Cols)
	if cols == nil {
		for j := range inCol {
			inCol[j] = true
		}
	} else {
		for _, cc := range cols {
			if cc < 0 || cc >= c.Cols {
				return nil, ErrIndexOutOfBounds
			}
			inCol[cc] = true
		}
	}

	out := NewCSR[T](c.Rows, c.Cols)
	type pair struct {
		col int
		pos int // position within A's row, to resolve duplicate targets (last wins)
		v   T
	}
	var region []pair
	for r := 0; r < c.Rows; r++ {
		cInd, cVal := c.Row(r)
		ar := invRow[r]
		if ar < 0 {
			out.Ind = append(out.Ind, cInd...)
			out.Val = append(out.Val, cVal...)
			out.Ptr[r+1] = len(out.Ind)
			continue
		}
		// Gather A row ar mapped into C column space, sorted by target col.
		aInd, aVal := a.Row(ar)
		region = region[:0]
		for k := range aInd {
			tgt := aInd[k]
			if cols != nil {
				tgt = cols[aInd[k]]
			}
			region = append(region, pair{tgt, k, aVal[k]})
		}
		sort.Slice(region, func(x, y int) bool {
			if region[x].col != region[y].col {
				return region[x].col < region[y].col
			}
			return region[x].pos < region[y].pos
		})
		// Deduplicate duplicate target columns, keeping the last source.
		w := 0
		for k := 0; k < len(region); k++ {
			if w > 0 && region[w-1].col == region[k].col {
				region[w-1] = region[k]
			} else {
				region[w] = region[k]
				w++
			}
		}
		region = region[:w]

		ci, ri := 0, 0
		for ci < len(cInd) || ri < len(region) {
			switch {
			case ri >= len(region) || (ci < len(cInd) && cInd[ci] < region[ri].col):
				j := cInd[ci]
				if inCol[j] && accum == nil {
					// inside region, no source entry, pure assignment: deleted
				} else {
					out.Ind = append(out.Ind, j)
					out.Val = append(out.Val, cVal[ci])
				}
				ci++
			case ci >= len(cInd) || region[ri].col < cInd[ci]:
				out.Ind = append(out.Ind, region[ri].col)
				out.Val = append(out.Val, region[ri].v)
				ri++
			default:
				v := region[ri].v
				if accum != nil {
					v = accum(cVal[ci], v)
				}
				out.Ind = append(out.Ind, region[ri].col)
				out.Val = append(out.Val, v)
				ci++
				ri++
			}
		}
		out.Ptr[r+1] = len(out.Ind)
	}
	return out, nil
}

// AssignScalarM computes the candidate Z for GrB_assign with a scalar
// source: every position in rows × cols receives val (combined with the
// existing C entry through accum when present). Positions of C outside the
// region pass through.
func AssignScalarM[T any](c *CSR[T], val T, rows, cols []int, accum func(T, T) T) (*CSR[T], error) {
	inRow, err := memberSet(rows, c.Rows)
	if err != nil {
		return nil, err
	}
	sortedCols, err := sortedUnique(cols, c.Cols)
	if err != nil {
		return nil, err
	}
	out := NewCSR[T](c.Rows, c.Cols)
	for r := 0; r < c.Rows; r++ {
		cInd, cVal := c.Row(r)
		if !inRow[r] {
			out.Ind = append(out.Ind, cInd...)
			out.Val = append(out.Val, cVal...)
			out.Ptr[r+1] = len(out.Ind)
			continue
		}
		ci, ri := 0, 0
		for ci < len(cInd) || ri < len(sortedCols) {
			switch {
			case ri >= len(sortedCols) || (ci < len(cInd) && cInd[ci] < sortedCols[ri]):
				out.Ind = append(out.Ind, cInd[ci])
				out.Val = append(out.Val, cVal[ci])
				ci++
			case ci >= len(cInd) || sortedCols[ri] < cInd[ci]:
				out.Ind = append(out.Ind, sortedCols[ri])
				out.Val = append(out.Val, val)
				ri++
			default:
				v := val
				if accum != nil {
					v = accum(cVal[ci], val)
				}
				out.Ind = append(out.Ind, sortedCols[ri])
				out.Val = append(out.Val, v)
				ci++
				ri++
			}
		}
		out.Ptr[r+1] = len(out.Ind)
	}
	return out, nil
}

// AssignV computes the candidate Z for vector assign: Z = C with
// Z(idx[i]) receiving U(i); same deletion/accumulation rules as AssignM.
func AssignV[T any](c, u *Vec[T], idx []int, accum func(T, T) T) (*Vec[T], error) {
	n := c.N
	if idx != nil {
		n = len(idx)
	}
	if u.N != n {
		return nil, ErrIndexOutOfBounds
	}
	inv := make([]int, c.N)
	for i := range inv {
		inv[i] = -1
	}
	if idx == nil {
		for i := 0; i < c.N; i++ {
			inv[i] = i
		}
	} else {
		for i, p := range idx {
			if p < 0 || p >= c.N {
				return nil, ErrIndexOutOfBounds
			}
			inv[p] = i
		}
	}
	bound := min(len(c.Ind)+len(u.Ind), c.N)
	out := &Vec[T]{N: c.N, Ind: make([]int, 0, bound), Val: make([]T, 0, bound)}
	ci := 0
	for p := 0; p < c.N; p++ {
		hasC := ci < len(c.Ind) && c.Ind[ci] == p
		src := inv[p]
		if src < 0 {
			if hasC {
				out.Ind = append(out.Ind, p)
				out.Val = append(out.Val, c.Val[ci])
				ci++
			}
			continue
		}
		uv, hasU := u.Get(src)
		switch {
		case hasU && hasC:
			v := uv
			if accum != nil {
				v = accum(c.Val[ci], uv)
			}
			out.Ind = append(out.Ind, p)
			out.Val = append(out.Val, v)
		case hasU:
			out.Ind = append(out.Ind, p)
			out.Val = append(out.Val, uv)
		case hasC && accum != nil:
			out.Ind = append(out.Ind, p)
			out.Val = append(out.Val, c.Val[ci])
		}
		if hasC {
			ci++
		}
	}
	return out, nil
}

// AssignScalarV computes the candidate Z for vector assign with a scalar
// source: every position in idx receives val. With idx == nil (all
// positions) Z is full and is filled directly, sharing C's index array when
// C is full too.
func AssignScalarV[T any](c *Vec[T], val T, idx []int, accum func(T, T) T) (*Vec[T], error) {
	if idx == nil {
		out := &Vec[T]{N: c.N, Ind: c.Ind, Val: make([]T, c.N)}
		if len(c.Ind) != c.N {
			out.Ind = fullPattern(c.N)
		}
		for i := range out.Val {
			out.Val[i] = val
		}
		if accum != nil {
			for k, i := range c.Ind {
				out.Val[i] = accum(c.Val[k], val)
			}
		}
		return out, nil
	}
	member, err := memberSet(idx, c.N)
	if err != nil {
		return nil, err
	}
	bound := min(len(c.Ind)+len(idx), c.N)
	out := &Vec[T]{N: c.N, Ind: make([]int, 0, bound), Val: make([]T, 0, bound)}
	ci := 0
	for p := 0; p < c.N; p++ {
		hasC := ci < len(c.Ind) && c.Ind[ci] == p
		if member[p] {
			v := val
			if accum != nil && hasC {
				v = accum(c.Val[ci], val)
			}
			out.Ind = append(out.Ind, p)
			out.Val = append(out.Val, v)
		} else if hasC {
			out.Ind = append(out.Ind, p)
			out.Val = append(out.Val, c.Val[ci])
		}
		if hasC {
			ci++
		}
	}
	return out, nil
}

// AssignScalarMaskedV computes w⟨m⟩ = w ⊙ val over all positions under a
// non-nil, non-complemented mask in one pass — the fusion of
// AssignScalarV(c, val, nil, accum) with MaskApplyV. The candidate of a
// scalar assign to every position is full, so the result is decided by C
// and the mask alone: a two-way merge of the two patterns, O(|C| + |mask|),
// that never materializes the n-entry candidate. Admitted positions receive
// val (folded into C's entry by accum when there is one); the others keep
// C's entry unless replace is set.
func AssignScalarMaskedV[T any](c *Vec[T], val T, accum func(T, T) T, mask VMask, replace bool) *Vec[T] {
	m := mask.M
	bound := len(m.Ind)
	if !replace {
		bound = min(bound+len(c.Ind), c.N)
	}
	out := &Vec[T]{N: c.N, Ind: make([]int, 0, bound), Val: make([]T, 0, bound)}
	ci, mi := 0, 0
	for ci < len(c.Ind) || mi < len(m.Ind) {
		switch {
		case mi >= len(m.Ind) || (ci < len(c.Ind) && c.Ind[ci] < m.Ind[mi]):
			if !replace {
				out.Ind = append(out.Ind, c.Ind[ci])
				out.Val = append(out.Val, c.Val[ci])
			}
			ci++
		case ci >= len(c.Ind) || m.Ind[mi] < c.Ind[ci]:
			if mask.Structural || m.Val[mi] {
				out.Ind = append(out.Ind, m.Ind[mi])
				out.Val = append(out.Val, val)
			}
			mi++
		default:
			if mask.Structural || m.Val[mi] {
				v := val
				if accum != nil {
					v = accum(c.Val[ci], val)
				}
				out.Ind = append(out.Ind, c.Ind[ci])
				out.Val = append(out.Val, v)
			} else if !replace {
				out.Ind = append(out.Ind, c.Ind[ci])
				out.Val = append(out.Val, c.Val[ci])
			}
			ci++
			mi++
		}
	}
	return out
}

// fullPattern returns the index array 0..n-1 of a full vector.
func fullPattern(n int) []int {
	ind := make([]int, n)
	for i := range ind {
		ind[i] = i
	}
	return ind
}

// memberSet converts an index list (nil = all) into a membership bitmap of
// length n, validating bounds.
func memberSet(idx []int, n int) ([]bool, error) {
	m := make([]bool, n)
	if idx == nil {
		for i := range m {
			m[i] = true
		}
		return m, nil
	}
	for _, i := range idx {
		if i < 0 || i >= n {
			return nil, ErrIndexOutOfBounds
		}
		m[i] = true
	}
	return m, nil
}

// sortedUnique returns the sorted deduplicated copy of idx (nil = 0..n-1),
// validating bounds.
func sortedUnique(idx []int, n int) ([]int, error) {
	if idx == nil {
		return fullPattern(n), nil
	}
	s := make([]int, len(idx))
	copy(s, idx)
	sort.Ints(s)
	w := 0
	for k := range s {
		if s[k] < 0 || s[k] >= n {
			return nil, ErrIndexOutOfBounds
		}
		if w == 0 || s[w-1] != s[k] {
			s[w] = s[k]
			w++
		}
	}
	return s[:w], nil
}
