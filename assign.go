package grb

import "github.com/grblas/grb/internal/sparse"

// MatrixAssign computes C⟨M⟩(rows, cols) = C(rows, cols) ⊙ A: assignment of
// A into the region of C addressed by the index lists (GrB_assign). The mask
// spans all of C (GrB_assign, not the subassign extension): with Replace,
// entries of C anywhere the mask is false are deleted. nil index slices mean
// all indices; A must be len(rows) × len(cols).
func MatrixAssign[T any](c *Matrix[T], mask *Matrix[bool], accum BinaryOp[T, T, T],
	a *Matrix[T], rows, cols []Index, desc *Descriptor) error {
	f := newFrame("MatrixAssign", desc, true, maskRef{m: mask}, c, a)
	acsr, cOld := in(&f, a), in(&f, c)
	if err := f.ready(); err != nil {
		return err
	}
	ri, cj, nr, nc, err := region(f.op, rows, cols, cOld)
	if err != nil {
		return err
	}
	t0 := f.d.Transpose0
	if ar, ac := transposedDims(acsr, t0); ar != nr || ac != nc {
		return errf(DimensionMismatch, "MatrixAssign: source is %dx%d but region is %dx%d", ar, ac, nr, nc)
	}
	f.ev.A(cOld.Rows, cOld.Cols, cOld.NNZ()).B(acsr.Rows, acsr.Cols, acsr.NNZ())
	return c.submit(&f, cOld, yieldsZ, accum, func(e sparse.Exec) (*sparse.CSR[T], error) {
		A, err := maybeTranspose(acsr, t0, e)
		if err != nil {
			return nil, err
		}
		return sparse.AssignM(cOld, A, ri, cj, accum)
	})
}

// MatrixAssignScalar computes C⟨M⟩(rows, cols) = C(rows, cols) ⊙ val:
// every position in the region receives the scalar value
// (GrB_Matrix_assign with a scalar source, Table II's assign family).
func MatrixAssignScalar[T any](c *Matrix[T], mask *Matrix[bool], accum BinaryOp[T, T, T],
	val T, rows, cols []Index, desc *Descriptor) error {
	return assignRegion("MatrixAssignScalar", c, mask, accum, rows, cols, desc,
		func(cOld *sparse.CSR[T], ri, cj []Index, _, _ int) (*sparse.CSR[T], error) {
			return sparse.AssignScalarM(cOld, val, ri, cj, accum)
		})
}

// MatrixAssignScalarObj is the Table II variant of MatrixAssignScalar whose
// source is a GrB_Scalar: GrB_assign(C, M, accum, s, I, J, desc). When the
// scalar is empty, the region's existing entries are deleted if accum is nil
// and left unchanged otherwise — assigning "nothing" everywhere.
func MatrixAssignScalarObj[T any](c *Matrix[T], mask *Matrix[bool], accum BinaryOp[T, T, T],
	s *Scalar[T], rows, cols []Index, desc *Descriptor) error {
	if s == nil {
		return errf(NullPointer, "MatrixAssignScalarObj: nil scalar")
	}
	v, ok, err := s.ExtractElement()
	if err != nil {
		return err
	}
	if ok {
		return MatrixAssignScalar(c, mask, accum, v, rows, cols, desc)
	}
	// Empty scalar: assign an all-empty source over the region.
	return assignRegion("MatrixAssignScalarObj", c, mask, accum, rows, cols, desc,
		func(cOld *sparse.CSR[T], ri, cj []Index, nr, nc int) (*sparse.CSR[T], error) {
			return sparse.AssignM(cOld, sparse.NewCSR[T](nr, nc), ri, cj, accum)
		})
}

// assignRegion is what the source-less matrix assigns share: a region of C,
// and a kernel that yields Z = C ⊙ (source over the region) from C's state,
// the region's index lists and its extent.
func assignRegion[T any](op string, c *Matrix[T], mask *Matrix[bool], accum BinaryOp[T, T, T],
	rows, cols []Index, desc *Descriptor,
	kernel func(cOld *sparse.CSR[T], ri, cj []Index, nr, nc int) (*sparse.CSR[T], error)) error {
	f := newFrame(op, desc, true, maskRef{m: mask}, c)
	cOld := in(&f, c)
	if err := f.ready(); err != nil {
		return err
	}
	ri, cj, nr, nc, err := region(op, rows, cols, cOld)
	if err != nil {
		return err
	}
	f.ev.A(cOld.Rows, cOld.Cols, cOld.NNZ())
	return c.submit(&f, cOld, yieldsZ, accum, func(sparse.Exec) (*sparse.CSR[T], error) {
		return kernel(cOld, ri, cj, nr, nc)
	})
}

// region validates an assign's index lists against C's shape and returns
// the step's copies of them with the region's extent.
func region[T any](op string, rows, cols []Index, c *sparse.CSR[T]) (ri, cj []Index, nr, nc int, err error) {
	if ri, nr, err = indexList(op, "row index", rows, c.Rows); err == nil {
		cj, nc, err = indexList(op, "column index", cols, c.Cols)
	}
	return ri, cj, nr, nc, err
}

// VectorAssign computes w⟨m⟩(idx) = w(idx) ⊙ u: assignment of u into the
// region of w addressed by idx (GrB_assign on vectors). u must have size
// len(idx); nil means all of w.
func VectorAssign[T any](w *Vector[T], mask *Vector[bool], accum BinaryOp[T, T, T],
	u *Vector[T], idx []Index, desc *Descriptor) error {
	f := newFrame("VectorAssign", desc, true, maskRef{v: mask}, w, u)
	uvec, wOld := in(&f, u), in(&f, w)
	if err := f.ready(); err != nil {
		return err
	}
	ci, n, err := indexList(f.op, "index", idx, wOld.N)
	if err != nil {
		return err
	}
	if uvec.N != n {
		return errf(DimensionMismatch, "VectorAssign: source has size %d but region has size %d", uvec.N, n)
	}
	f.ev.A(wOld.N, 1, wOld.NNZ()).B(uvec.N, 1, uvec.NNZ())
	return w.submit(&f, wOld, yieldsZ, accum, func(e sparse.Exec) (*sparse.Vec[T], error) {
		return sparse.AssignV(wOld, uvec, ci, accum, e)
	})
}

// VectorAssignScalar computes w⟨m⟩(idx) = w(idx) ⊙ val: every position in
// idx receives the scalar value (GrB_Vector_assign with a scalar source).
func VectorAssignScalar[T any](w *Vector[T], mask *Vector[bool], accum BinaryOp[T, T, T],
	val T, idx []Index, desc *Descriptor) error {
	f := newFrame("VectorAssignScalar", desc, true, maskRef{v: mask}, w)
	wOld := in(&f, w)
	if err := f.ready(); err != nil {
		return err
	}
	ci, _, err := indexList(f.op, "index", idx, wOld.N)
	if err != nil {
		return err
	}
	f.ev.A(wOld.N, 1, wOld.NNZ())
	if mk := f.mask.vector(); ci == nil && mk.M != nil {
		// w⟨m⟩ = val over all of w, m complemented or not: decided by w and
		// m alone, without the full candidate the general path would build
		// and discard.
		replace := f.d.Replace
		return w.submit(&f, wOld, yieldsC, accum, func(e sparse.Exec) (*sparse.Vec[T], error) {
			return sparse.AssignScalarMaskedV(wOld, val, accum, mk, replace, e)
		})
	}
	return w.submit(&f, wOld, yieldsZ, accum, func(e sparse.Exec) (*sparse.Vec[T], error) {
		return sparse.AssignScalarV(wOld, val, ci, accum, e)
	})
}

// VectorAssignScalarObj is the Table II variant of VectorAssignScalar whose
// source is a GrB_Scalar; an empty scalar deletes the region's entries when
// accum is nil (see MatrixAssignScalarObj).
func VectorAssignScalarObj[T any](w *Vector[T], mask *Vector[bool], accum BinaryOp[T, T, T],
	s *Scalar[T], idx []Index, desc *Descriptor) error {
	if s == nil {
		return errf(NullPointer, "VectorAssignScalarObj: nil scalar")
	}
	v, ok, err := s.ExtractElement()
	if err != nil {
		return err
	}
	if ok {
		return VectorAssignScalar(w, mask, accum, v, idx, desc)
	}
	f := newFrame("VectorAssignScalarObj", desc, true, maskRef{v: mask}, w)
	wOld := in(&f, w)
	if err := f.ready(); err != nil {
		return err
	}
	ci, n, err := indexList(f.op, "index", idx, wOld.N)
	if err != nil {
		return err
	}
	f.ev.A(wOld.N, 1, wOld.NNZ())
	return w.submit(&f, wOld, yieldsZ, accum, func(e sparse.Exec) (*sparse.Vec[T], error) {
		return sparse.AssignV(wOld, sparse.NewVec[T](n), ci, accum, e)
	})
}
