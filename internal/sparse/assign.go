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
// nil rows/cols mean all indices. A must be len(rows)×len(cols). Where an
// index list repeats a target (undefined in the C spec) the last listed row,
// and the last stored entry of a row, win.
func AssignM[T any](c, a *CSR[T], rows, cols []int, accum func(T, T) T) (out *CSR[T], err error) {
	defer recoverExec(&err)
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
	for r := range invRow {
		invRow[r] = -1
		if rows == nil {
			invRow[r] = r
		}
	}
	for i, r := range rows {
		if r < 0 || r >= c.Rows {
			return nil, ErrIndexOutOfBounds
		}
		invRow[r] = i // a repeated row: the last listed wins
	}
	// The region's columns as a structural mask over a row of C: the listed
	// ones, or — cols == nil — the complement of none.
	var region run[bool]
	src := a // A in C's column space
	if cols != nil {
		if region.ind, err = sortedUnique(cols, c.Cols); err != nil {
			return nil, err
		}
		src = rowwise(a.Rows, c.Cols, 1, a.span,
			func(i int, ind []int, val []T) ([]int, []T) { return gatherRun(ind, val, a.run(i), inverse{pos: cols}) })
	}
	return rowwise(c.Rows, c.Cols, 1,
		func(lo, hi int) int { return c.span(lo, hi) + src.NNZ() },
		func(r int, ind []int, val []T) ([]int, []T) {
			switch ar := invRow[r]; {
			case ar < 0:
				return appendRun(ind, val, c.run(r))
			case accum != nil:
				return unionRun(ind, val, c.run(r), src.run(ar), accum)
			default:
				return maskRun(ind, val, c.run(r), src.run(ar), region, true, cols == nil)
			}
		}), nil
}

// AssignScalarM computes the candidate Z for GrB_assign with a scalar
// source: every position in rows × cols receives val (combined with the
// existing C entry through accum when present). Positions of C outside the
// region pass through.
func AssignScalarM[T any](c *CSR[T], val T, rows, cols []int, accum func(T, T) T) (out *CSR[T], err error) {
	defer recoverExec(&err)
	inRow, err := memberSet(rows, c.Rows)
	if err != nil {
		return nil, err
	}
	region, err := scalarRun(val, cols, c.Cols)
	if err != nil {
		return nil, err
	}
	return rowwise(c.Rows, c.Cols, 1,
		func(lo, hi int) int {
			n := c.span(lo, hi)
			for _, in := range inRow[lo:hi] {
				if in {
					n += len(region.ind)
				}
			}
			return n
		},
		func(r int, ind []int, val []T) ([]int, []T) {
			if !inRow[r] {
				return appendRun(ind, val, c.run(r))
			}
			return unionRun(ind, val, c.run(r), region, accum)
		}), nil
}

// AssignV computes the candidate Z for vector assign: Z = C with
// Z(idx[i]) receiving U(i); same deletion/accumulation rules as AssignM,
// of which it is the one-row case. With every index (idx == nil) Z is U
// merged into C by accum: AccumMergeV, sharing and bitmaps included; a list
// reads the two through the sorted door, charged to e.
func AssignV[T any](c, u *Vec[T], idx []int, accum func(T, T) T, e Exec) (_ *Vec[T], err error) {
	if idx == nil {
		if u.N != c.N {
			return nil, ErrIndexOutOfBounds
		}
		return AccumMergeV(c, u, accum), nil
	}
	if u.N != len(idx) {
		return nil, ErrIndexOutOfBounds
	}
	if c, err = c.sortedEx(e); err == nil {
		u, err = u.sortedEx(e)
	}
	if err != nil {
		return nil, err
	}
	region, err := sortedUnique(idx, c.N)
	if err != nil {
		return nil, err
	}
	var src run[T] // U in C's index space
	src.ind, src.val = makeRun[T](len(u.Ind))
	src.ind, src.val = gatherRun(src.ind, src.val, u.run(), inverse{pos: idx})
	ind, val := makeRun[T](min(len(c.Ind)+len(src.ind), c.N))
	if accum != nil {
		ind, val = unionRun(ind, val, c.run(), src, accum)
	} else {
		ind, val = maskRun(ind, val, c.run(), src, run[bool]{ind: region}, true, false)
	}
	return &Vec[T]{N: c.N, Ind: ind, Val: val}, nil
}

// AssignScalarV computes the candidate Z for vector assign with a scalar
// source: every position in idx receives val. With idx == nil (all
// positions) Z is full and is written in the full form: over an indexed C
// with an accumulator, into C's slots or a copy of them (bitmapBase);
// otherwise into C's value array when the step granted it through e
// (reuseVal), and a sorted C's entries are folded in by position. A list
// reads C through the sorted door.
func AssignScalarV[T any](c *Vec[T], val T, idx []int, accum func(T, T) T, e Exec) (*Vec[T], error) {
	if idx == nil {
		if accum != nil && c.indexed() {
			out := bitmapBase(e, c, nil, c.N)
			for i := range out.Val {
				out.installAt(i, val, accum, false)
			}
			return installSettled(out), nil
		}
		// No accumulator, or c sorted short of full: c.Val is not out.Val.
		out := &Vec[T]{N: c.N, Val: reuseVal[T](e, c.N, nil)}
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
	c, err := c.sortedEx(e)
	if err != nil {
		return nil, err
	}
	region, err := scalarRun(val, idx, c.N)
	if err != nil {
		return nil, err
	}
	zInd, zVal := makeRun[T](min(len(c.Ind)+len(region.ind), c.N))
	zInd, zVal = unionRun(zInd, zVal, c.run(), region, accum)
	return &Vec[T]{N: c.N, Ind: zInd, Val: zVal}, nil
}

// scalarRun is the region of a scalar assign along one run: val at each
// listed index (nil = all of 0..n-1), sorted, repeats dropped.
func scalarRun[T any](val T, idx []int, n int) (run[T], error) {
	ind, err := sortedUnique(idx, n)
	if err != nil {
		return run[T]{}, err
	}
	r := run[T]{ind, make([]T, len(ind))}
	for k := range r.val {
		r.val[k] = val
	}
	return r, nil
}

// AssignScalarMaskedV computes w⟨m⟩ = w ⊙ val over all positions under a
// non-nil mask in one pass — the fusion of AssignScalarV(c, val, nil, accum)
// with MaskApplyV. The candidate of a scalar assign to every position is
// full, so the result is decided by C and the mask alone, and the n-entry
// candidate is never built: a two-way merge of the two patterns,
// O(|C| + |mask|), or under a complement, which admits the positions
// neither stores, one walk over all n. Admitted positions receive val
// (folded into C's entry by accum when there is one); the others keep C's
// entry unless replace is set. The result is allocated once, at admits +
// min(|C|, rejects) (vmaskBounds), or under a complement at its counted
// size, in the full form when it stores every position. Under a plain mask
// and no replace, an indexed C — or a granted sorted one past bitmapCut —
// takes the mask's admitted positions in place instead (bitmapBase), a walk
// over the mask in its resident form. Otherwise the mask and C are read
// through the sorted door, charged to e.
func AssignScalarMaskedV[T any](c *Vec[T], val T, accum func(T, T) T, mask VMask, replace bool, e Exec) (*Vec[T], error) {
	if !mask.Complement && !replace {
		if out := bitmapBase(e, c, nil, mask.M.NNZ()); out != nil {
			scan(mask.M, func(j int, x bool) bool {
				if mask.Structural || x {
					out.installAt(j, val, accum, false)
				}
				return true
			})
			return installSettled(out), nil
		}
	}
	m, err := mask.M.sortedEx(e)
	if err != nil {
		return nil, err
	}
	selects := func(k int) bool { return mask.Structural || m.Val[k] } // the mask's entry k, before a complement
	if c, err = c.sortedEx(e); err != nil {
		return nil, err
	}
	if mask.Complement {
		// Every position is stored but those the mask rejects with no entry
		// of C kept there: count them, and drop Ind when there are none.
		missing, ci := 0, 0
		for k, j := range m.Ind {
			for ci < len(c.Ind) && c.Ind[ci] < j {
				ci++
			}
			if selects(k) && (replace || ci == len(c.Ind) || c.Ind[ci] != j) {
				missing++
			}
		}
		out := &Vec[T]{N: c.N, Val: make([]T, 0, c.N-missing)}
		if missing > 0 {
			out.Ind = make([]int, 0, c.N-missing)
		}
		ci, mi := 0, 0
		for j := range c.N {
			hasC, inM := ci < len(c.Ind) && c.Ind[ci] == j, mi < len(m.Ind) && m.Ind[mi] == j
			if rejected := inM && selects(mi); !rejected || hasC && !replace {
				v := val
				switch {
				case rejected:
					v = c.Val[ci]
				case hasC && accum != nil:
					v = accum(c.Val[ci], val)
				}
				if missing > 0 {
					out.Ind = append(out.Ind, j)
				}
				out.Val = append(out.Val, v)
			}
			if hasC {
				ci++
			}
			if inM {
				mi++
			}
		}
		return out, nil
	}
	bound, rejects := vmaskBounds(mask, c.N)
	if !replace {
		bound = min(bound+min(len(c.Ind), rejects), c.N)
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
			if selects(mi) {
				out.Ind = append(out.Ind, m.Ind[mi])
				out.Val = append(out.Val, val)
			}
			mi++
		default:
			if selects(mi) {
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
	return out, nil
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
