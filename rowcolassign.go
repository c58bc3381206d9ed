package grb

import "github.com/grblas/grb/internal/sparse"

// RowAssign computes C⟨m'⟩(i, cols) = C(i, cols) ⊙ u: assignment of a vector
// into (part of) one row of C (GrB_Row_assign). The mask m, when present, is
// a vector mask over the row. u must have size len(cols); nil cols means the
// whole row.
func RowAssign[T any](c *Matrix[T], mask *Vector[bool], accum BinaryOp[T, T, T],
	u *Vector[T], i Index, cols []Index, desc *Descriptor) error {
	f := newFrame("RowAssign", desc, true, maskRef{v: mask}, c, u)
	uvec, cOld := in(&f, u), in(&f, c)
	if err := f.ready(); err != nil {
		return err
	}
	if i < 0 || i >= cOld.Rows {
		return errf(InvalidIndex, "RowAssign: row %d outside %d rows", i, cOld.Rows)
	}
	cj, nc, err := indexList(f.op, "column index", cols, cOld.Cols)
	if err != nil {
		return err
	}
	if uvec.N != nc {
		return errf(DimensionMismatch, "RowAssign: source has size %d but region has size %d", uvec.N, nc)
	}
	if err := checkMaskDimsV(f.mask.V, cOld.Cols); err != nil {
		return err
	}
	mk, replace := f.mask.vector(), f.d.Replace
	f.ev.A(cOld.Rows, cOld.Cols, cOld.NNZ()).B(uvec.N, 1, uvec.NNZ())
	return c.submit(&f, cOld, yieldsC, accum, func(sparse.Exec) (*sparse.CSR[T], error) {
		return assignRow(cOld, i, uvec, cj, accum, mk, replace)
	})
}

// ColAssign computes C⟨m'⟩(rows, j) = C(rows, j) ⊙ u: assignment of a vector
// into (part of) one column of C (GrB_Col_assign). The mask, when present,
// is a vector mask over the column. u must have size len(rows); nil rows
// means the whole column.
func ColAssign[T any](c *Matrix[T], mask *Vector[bool], accum BinaryOp[T, T, T],
	u *Vector[T], rows []Index, j Index, desc *Descriptor) error {
	f := newFrame("ColAssign", desc, true, maskRef{v: mask}, c, u)
	uvec, cOld := in(&f, u), in(&f, c)
	if err := f.ready(); err != nil {
		return err
	}
	if j < 0 || j >= cOld.Cols {
		return errf(InvalidIndex, "ColAssign: column %d outside %d columns", j, cOld.Cols)
	}
	ri, nr, err := indexList(f.op, "row index", rows, cOld.Rows)
	if err != nil {
		return err
	}
	if uvec.N != nr {
		return errf(DimensionMismatch, "ColAssign: source has size %d but region has size %d", uvec.N, nr)
	}
	if err := checkMaskDimsV(f.mask.V, cOld.Rows); err != nil {
		return err
	}
	mk, replace := f.mask.vector(), f.d.Replace
	f.ev.A(cOld.Rows, cOld.Cols, cOld.NNZ()).B(uvec.N, 1, uvec.NNZ())
	return c.submit(&f, cOld, yieldsC, accum, func(sparse.Exec) (*sparse.CSR[T], error) {
		// Work on the transpose so the column becomes a row, then
		// transpose back. O(nnz) each way; the forward transpose is the
		// cached view, so repeated column assigns on a settled matrix pay
		// only the splice and the way back.
		ct, err := assignRow(sparse.TransposeCached(cOld), j, uvec, ri, accum, mk, replace)
		if err != nil {
			return nil, err
		}
		return sparse.Transpose(ct), nil
	})
}

// assignRow returns a copy of m whose row i is row⟨mk⟩(idx) = row(idx) ⊙ u:
// the row is taken out as a vector, assigned into and masked as one, and
// spliced back.
func assignRow[T any](m *sparse.CSR[T], i int, u *sparse.Vec[T], idx []Index,
	accum func(T, T) T, mk sparse.VMask, replace bool) (*sparse.CSR[T], error) {
	oldInd, oldVal := m.Row(i)
	old := &sparse.Vec[T]{N: m.Cols, Ind: oldInd, Val: oldVal}
	z, err := sparse.AssignV(old, u, idx, accum)
	if err != nil {
		return nil, err
	}
	row := sparse.MaskApplyV(old, z, mk, replace)
	out := &sparse.CSR[T]{Rows: m.Rows, Cols: m.Cols, Ptr: make([]int, m.Rows+1)}
	newLen := len(m.Ind) - len(oldInd) + row.NNZ()
	out.Ind = make([]int, 0, newLen)
	out.Val = make([]T, 0, newLen)
	for r := 0; r < m.Rows; r++ {
		ind, val := row.Ind, row.Val
		if r != i {
			ind, val = m.Row(r)
		}
		out.Ind = append(out.Ind, ind...)
		out.Val = append(out.Val, val...)
		out.Ptr[r+1] = len(out.Ind)
	}
	return out, nil
}
