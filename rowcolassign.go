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
	return c.submit(&f, cOld, yieldsC, accum, func(e sparse.Exec) (*sparse.CSR[T], error) {
		ind, val := cOld.Row(i)
		old := &sparse.Vec[T]{N: cOld.Cols, Ind: ind, Val: val}
		return assignLine(cOld, old, uvec, cj, accum, mk, replace, []int{i}, nil, e)
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
	return c.submit(&f, cOld, yieldsC, accum, func(e sparse.Exec) (*sparse.CSR[T], error) {
		old, err := sparse.ExtractColV(cOld, nil, j)
		if err != nil {
			return nil, err
		}
		return assignLine(cOld, old, uvec, ri, accum, mk, replace, nil, []int{j}, e)
	})
}

// assignLine returns a copy of m whose row rows[0] or column cols[0] — the
// other list is nil — is line⟨mk⟩(idx) = line(idx) ⊙ u, where old is the
// line taken out as a vector: it is assigned into and masked as one, and
// written back over the line as a 1×n or n×1 matrix. O(nnz), with no
// transpose.
func assignLine[T any](m *sparse.CSR[T], old, u *sparse.Vec[T], idx []Index, accum func(T, T) T,
	mk sparse.VMask, replace bool, rows, cols []int, e sparse.Exec) (*sparse.CSR[T], error) {
	z, err := sparse.AssignV(old, u, idx, accum, e)
	if err != nil {
		return nil, err
	}
	line := sparse.MaskApplyV(old, z, mk, replace).Sorted()
	I, J, r, c := line.Ind, make([]int, line.NNZ()), m.Rows, 1
	if rows != nil {
		I, J, r, c = J, I, 1, m.Cols
	}
	l, err := sparse.BuildCSR(r, c, I, J, line.Val, nil)
	if err != nil {
		return nil, err
	}
	return sparse.AssignM(m, l, rows, cols, nil)
}
