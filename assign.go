package grb

import (
	"github.com/grblas/grb/internal/obsv"
	"github.com/grblas/grb/internal/sparse"
)

// MatrixAssign computes C⟨M⟩(rows, cols) = C(rows, cols) ⊙ A: assignment of
// A into the region of C addressed by the index lists (GrB_assign). The mask
// spans all of C (GrB_assign, not the subassign extension): with Replace,
// entries of C anywhere the mask is false are deleted. nil index slices mean
// all indices; A must be len(rows) × len(cols).
func MatrixAssign[T any](c *Matrix[T], mask *Matrix[bool], accum BinaryOp[T, T, T],
	a *Matrix[T], rows, cols []Index, desc *Descriptor) error {
	if err := c.check(); err != nil {
		return err
	}
	if err := a.check(); err != nil {
		return err
	}
	ctxs := append([]*Context{c.ctx, a.ctx}, maskCtx(mask)...)
	ctx, err := sameContext(ctxs...)
	if err != nil {
		return err
	}
	d := desc.get()
	acsr, err := a.snapshot()
	if err != nil {
		return err
	}
	cOld, err := c.snapshot()
	if err != nil {
		return err
	}
	mk, err := snapMask(mask, d)
	if err != nil {
		return err
	}
	ar, ac := acsr.Rows, acsr.Cols
	if d.Transpose0 {
		ar, ac = ac, ar
	}
	nr, nc := cOld.Rows, cOld.Cols
	if rows != nil {
		nr = len(rows)
		for _, r := range rows {
			if r < 0 || r >= cOld.Rows {
				return errf(InvalidIndex, "MatrixAssign: row index %d outside %d rows", r, cOld.Rows)
			}
		}
	}
	if cols != nil {
		nc = len(cols)
		for _, cc := range cols {
			if cc < 0 || cc >= cOld.Cols {
				return errf(InvalidIndex, "MatrixAssign: column index %d outside %d columns", cc, cOld.Cols)
			}
		}
	}
	if ar != nr || ac != nc {
		return errf(DimensionMismatch, "MatrixAssign: source is %dx%d but region is %dx%d", ar, ac, nr, nc)
	}
	if err := checkMaskDimsM(mk, cOld.Rows, cOld.Cols); err != nil {
		return err
	}
	ri := append([]Index(nil), rows...)
	cj := append([]Index(nil), cols...)
	if rows == nil {
		ri = nil
	}
	if cols == nil {
		cj = nil
	}
	threads := ctx.threadsFor(cOld.NNZ() + acsr.NNZ())
	var ev *obsv.Event
	if obsv.Active() {
		ev = evKernel("MatrixAssign").WithThreads(threads).
			A(cOld.Rows, cOld.Cols, cOld.NNZ()).B(acsr.Rows, acsr.Cols, acsr.NNZ())
	}
	return c.enqueue(ctx, ev, func() (*sparse.CSR[T], error) {
		A := maybeTranspose(acsr, d.Transpose0)
		z, err := sparse.AssignM(cOld, A, ri, cj, accum)
		if err != nil {
			return nil, mapSparseErr(err, "MatrixAssign")
		}
		return sparse.MaskApplyM(cOld, z, mk, d.Replace, threads), nil
	})
}

// MatrixAssignScalar computes C⟨M⟩(rows, cols) = C(rows, cols) ⊙ val:
// every position in the region receives the scalar value
// (GrB_Matrix_assign with a scalar source, Table II's assign family).
func MatrixAssignScalar[T any](c *Matrix[T], mask *Matrix[bool], accum BinaryOp[T, T, T],
	val T, rows, cols []Index, desc *Descriptor) error {
	if err := c.check(); err != nil {
		return err
	}
	ctxs := append([]*Context{c.ctx}, maskCtx(mask)...)
	ctx, err := sameContext(ctxs...)
	if err != nil {
		return err
	}
	d := desc.get()
	cOld, err := c.snapshot()
	if err != nil {
		return err
	}
	mk, err := snapMask(mask, d)
	if err != nil {
		return err
	}
	if err := validateRegion(rows, cols, cOld.Rows, cOld.Cols, "MatrixAssignScalar"); err != nil {
		return err
	}
	if err := checkMaskDimsM(mk, cOld.Rows, cOld.Cols); err != nil {
		return err
	}
	ri := append([]Index(nil), rows...)
	cj := append([]Index(nil), cols...)
	if rows == nil {
		ri = nil
	}
	if cols == nil {
		cj = nil
	}
	threads := ctx.threadsFor(cOld.NNZ())
	var ev *obsv.Event
	if obsv.Active() {
		ev = evKernel("MatrixAssignScalar").WithThreads(threads).
			A(cOld.Rows, cOld.Cols, cOld.NNZ())
	}
	return c.enqueue(ctx, ev, func() (*sparse.CSR[T], error) {
		z, err := sparse.AssignScalarM(cOld, val, ri, cj, accum)
		if err != nil {
			return nil, mapSparseErr(err, "MatrixAssignScalar")
		}
		return sparse.MaskApplyM(cOld, z, mk, d.Replace, threads), nil
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
	return assignEmptyRegion(c, mask, accum, rows, cols, desc)
}

// assignEmptyRegion implements assignment of an entirely empty source.
func assignEmptyRegion[T any](c *Matrix[T], mask *Matrix[bool], accum BinaryOp[T, T, T],
	rows, cols []Index, desc *Descriptor) error {
	if err := c.check(); err != nil {
		return err
	}
	ctxs := append([]*Context{c.ctx}, maskCtx(mask)...)
	ctx, err := sameContext(ctxs...)
	if err != nil {
		return err
	}
	d := desc.get()
	cOld, err := c.snapshot()
	if err != nil {
		return err
	}
	mk, err := snapMask(mask, d)
	if err != nil {
		return err
	}
	if err := validateRegion(rows, cols, cOld.Rows, cOld.Cols, "MatrixAssignScalarObj"); err != nil {
		return err
	}
	if err := checkMaskDimsM(mk, cOld.Rows, cOld.Cols); err != nil {
		return err
	}
	nr, nc := cOld.Rows, cOld.Cols
	if rows != nil {
		nr = len(rows)
	}
	if cols != nil {
		nc = len(cols)
	}
	ri := append([]Index(nil), rows...)
	cj := append([]Index(nil), cols...)
	if rows == nil {
		ri = nil
	}
	if cols == nil {
		cj = nil
	}
	threads := ctx.threadsFor(cOld.NNZ())
	var ev *obsv.Event
	if obsv.Active() {
		ev = evKernel("MatrixAssignScalarObj").WithThreads(threads).
			A(cOld.Rows, cOld.Cols, cOld.NNZ())
	}
	return c.enqueue(ctx, ev, func() (*sparse.CSR[T], error) {
		empty := sparse.NewCSR[T](nr, nc)
		z, err := sparse.AssignM(cOld, empty, ri, cj, accum)
		if err != nil {
			return nil, mapSparseErr(err, "MatrixAssignScalarObj")
		}
		return sparse.MaskApplyM(cOld, z, mk, d.Replace, threads), nil
	})
}

// validateRegion checks assign index lists against the output shape.
func validateRegion(rows, cols []Index, nr, nc int, op string) error {
	for _, r := range rows {
		if r < 0 || r >= nr {
			return errf(InvalidIndex, "%s: row index %d outside %d rows", op, r, nr)
		}
	}
	for _, c := range cols {
		if c < 0 || c >= nc {
			return errf(InvalidIndex, "%s: column index %d outside %d columns", op, c, nc)
		}
	}
	return nil
}

// VectorAssign computes w⟨m⟩(idx) = w(idx) ⊙ u: assignment of u into the
// region of w addressed by idx (GrB_assign on vectors). u must have size
// len(idx); nil means all of w.
func VectorAssign[T any](w *Vector[T], mask *Vector[bool], accum BinaryOp[T, T, T],
	u *Vector[T], idx []Index, desc *Descriptor) error {
	if err := w.check(); err != nil {
		return err
	}
	if err := u.check(); err != nil {
		return err
	}
	ctxs := append([]*Context{w.ctx, u.ctx}, vmaskCtx(mask)...)
	ctx, err := sameContext(ctxs...)
	if err != nil {
		return err
	}
	d := desc.get()
	uvec, err := u.snapshot()
	if err != nil {
		return err
	}
	wOld, err := w.snapshot()
	if err != nil {
		return err
	}
	mk, err := snapVMask(mask, d)
	if err != nil {
		return err
	}
	n := wOld.N
	if idx != nil {
		n = len(idx)
		for _, i := range idx {
			if i < 0 || i >= wOld.N {
				return errf(InvalidIndex, "VectorAssign: index %d outside size %d", i, wOld.N)
			}
		}
	}
	if uvec.N != n {
		return errf(DimensionMismatch, "VectorAssign: source has size %d but region has size %d", uvec.N, n)
	}
	if err := checkMaskDimsV(mk, wOld.N); err != nil {
		return err
	}
	ci := append([]Index(nil), idx...)
	if idx == nil {
		ci = nil
	}
	var ev *obsv.Event
	if obsv.Active() {
		ev = evKernel("VectorAssign").
			A(wOld.N, 1, wOld.NNZ()).B(uvec.N, 1, uvec.NNZ())
	}
	return w.enqueue(ctx, ev, func() (*sparse.Vec[T], error) {
		z, err := sparse.AssignV(wOld, uvec, ci, accum)
		if err != nil {
			return nil, mapSparseErr(err, "VectorAssign")
		}
		return sparse.MaskApplyV(wOld, z, mk, d.Replace), nil
	})
}

// VectorAssignScalar computes w⟨m⟩(idx) = w(idx) ⊙ val: every position in
// idx receives the scalar value (GrB_Vector_assign with a scalar source).
func VectorAssignScalar[T any](w *Vector[T], mask *Vector[bool], accum BinaryOp[T, T, T],
	val T, idx []Index, desc *Descriptor) error {
	if err := w.check(); err != nil {
		return err
	}
	ctxs := append([]*Context{w.ctx}, vmaskCtx(mask)...)
	ctx, err := sameContext(ctxs...)
	if err != nil {
		return err
	}
	d := desc.get()
	wOld, err := w.snapshot()
	if err != nil {
		return err
	}
	mk, err := snapVMask(mask, d)
	if err != nil {
		return err
	}
	for _, i := range idx {
		if i < 0 || i >= wOld.N {
			return errf(InvalidIndex, "VectorAssignScalar: index %d outside size %d", i, wOld.N)
		}
	}
	if err := checkMaskDimsV(mk, wOld.N); err != nil {
		return err
	}
	ci := append([]Index(nil), idx...)
	if idx == nil {
		ci = nil
	}
	var ev *obsv.Event
	if obsv.Active() {
		ev = evKernel("VectorAssignScalar").A(wOld.N, 1, wOld.NNZ())
	}
	return w.enqueue(ctx, ev, func() (*sparse.Vec[T], error) {
		if ci == nil && mk.M != nil && !mk.Complement {
			// w⟨m⟩ = val over all of w: decided by w and m alone, without
			// the full candidate the general path would build and discard.
			return sparse.AssignScalarMaskedV(wOld, val, accum, mk, d.Replace), nil
		}
		z, err := sparse.AssignScalarV(wOld, val, ci, accum)
		if err != nil {
			return nil, mapSparseErr(err, "VectorAssignScalar")
		}
		return sparse.MaskApplyV(wOld, z, mk, d.Replace), nil
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
	if err := w.check(); err != nil {
		return err
	}
	ctxs := append([]*Context{w.ctx}, vmaskCtx(mask)...)
	ctx, err := sameContext(ctxs...)
	if err != nil {
		return err
	}
	d := desc.get()
	wOld, err := w.snapshot()
	if err != nil {
		return err
	}
	mk, err := snapVMask(mask, d)
	if err != nil {
		return err
	}
	n := wOld.N
	if idx != nil {
		n = len(idx)
		for _, i := range idx {
			if i < 0 || i >= wOld.N {
				return errf(InvalidIndex, "VectorAssignScalarObj: index %d outside size %d", i, wOld.N)
			}
		}
	}
	if err := checkMaskDimsV(mk, wOld.N); err != nil {
		return err
	}
	ci := append([]Index(nil), idx...)
	if idx == nil {
		ci = nil
	}
	var ev *obsv.Event
	if obsv.Active() {
		ev = evKernel("VectorAssignScalarObj").A(wOld.N, 1, wOld.NNZ())
	}
	return w.enqueue(ctx, ev, func() (*sparse.Vec[T], error) {
		empty := sparse.NewVec[T](n)
		z, err := sparse.AssignV(wOld, empty, ci, accum)
		if err != nil {
			return nil, mapSparseErr(err, "VectorAssignScalarObj")
		}
		return sparse.MaskApplyV(wOld, z, mk, d.Replace), nil
	})
}
