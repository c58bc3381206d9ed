package grb

import "github.com/grblas/grb/internal/sparse"

// mapMatrix is what the matrix apply and select operations share: one input
// that, as the descriptor transposes it, has the output's shape, visited
// entry by entry. kernel maps the (possibly transposed) input to T.
func mapMatrix[DC, DA any](op string, c *Matrix[DC], mask *Matrix[bool],
	accum BinaryOp[DC, DC, DC], a *Matrix[DA], desc *Descriptor,
	kernel func(in *sparse.CSR[DA], e sparse.Exec) *sparse.CSR[DC]) error {
	f := newFrame(op, desc, true, maskRef{m: mask}, c, a)
	acsr, cOld := in(&f, a), old(&f, c)
	if err := f.ready(); err != nil {
		return err
	}
	t0 := f.d.Transpose0
	if ar, ac := transposedDims(acsr, t0); cOld.Rows != ar || cOld.Cols != ac {
		return errf(DimensionMismatch, "%s: output is %dx%d but input is %dx%d", op, cOld.Rows, cOld.Cols, ar, ac)
	}
	f.ev.A(acsr.Rows, acsr.Cols, acsr.NNZ()).WithFlops(int64(acsr.NNZ()))
	return c.submit(&f, cOld, yieldsT, accum, func(e sparse.Exec) (*sparse.CSR[DC], error) {
		in, err := maybeTranspose(acsr, t0, e)
		if err != nil {
			return nil, err
		}
		return kernel(in, e), nil
	})
}

// mapVector is the vector analogue of mapMatrix.
func mapVector[DC, DA any](op string, w *Vector[DC], mask *Vector[bool],
	accum BinaryOp[DC, DC, DC], u *Vector[DA], desc *Descriptor,
	kernel func(in *sparse.Vec[DA]) *sparse.Vec[DC]) error {
	f := newFrame(op, desc, true, maskRef{v: mask}, w, u)
	uvec, wOld := in(&f, u), in(&f, w)
	if err := f.ready(); err != nil {
		return err
	}
	if wOld.N != uvec.N {
		return errf(DimensionMismatch, "%s: output has size %d but input has size %d", op, wOld.N, uvec.N)
	}
	f.ev.A(uvec.N, 1, uvec.NNZ()).WithFlops(int64(uvec.NNZ()))
	return w.submit(&f, wOld, yieldsT, accum, func(sparse.Exec) (*sparse.Vec[DC], error) {
		return kernel(uvec), nil
	})
}

// MatrixApply computes C⟨M⟩ = C ⊙ f(A): a unary operator mapped over every
// stored entry (GrB_apply).
func MatrixApply[DC, DA any](c *Matrix[DC], mask *Matrix[bool], accum BinaryOp[DC, DC, DC],
	op UnaryOp[DA, DC], a *Matrix[DA], desc *Descriptor) error {
	if op == nil {
		return errf(NullPointer, "MatrixApply: nil operator")
	}
	return mapMatrix("MatrixApply", c, mask, accum, a, desc,
		func(in *sparse.CSR[DA], e sparse.Exec) *sparse.CSR[DC] {
			return sparse.ApplyM(in, op, e)
		})
}

// MatrixApplyBindFirst computes C⟨M⟩ = C ⊙ f(s, A): a binary operator with
// its first argument bound to the scalar value s (GrB_apply with BinaryOp
// and scalar first input).
func MatrixApplyBindFirst[DC, DS, DA any](c *Matrix[DC], mask *Matrix[bool], accum BinaryOp[DC, DC, DC],
	op BinaryOp[DS, DA, DC], s DS, a *Matrix[DA], desc *Descriptor) error {
	if op == nil {
		return errf(NullPointer, "MatrixApplyBindFirst: nil operator")
	}
	return mapMatrix("MatrixApplyBindFirst", c, mask, accum, a, desc,
		func(in *sparse.CSR[DA], e sparse.Exec) *sparse.CSR[DC] {
			return sparse.ApplyM(in, func(v DA) DC { return op(s, v) }, e)
		})
}

// MatrixApplyBindSecond computes C⟨M⟩ = C ⊙ f(A, s): a binary operator with
// its second argument bound to the scalar value s.
func MatrixApplyBindSecond[DC, DA, DS any](c *Matrix[DC], mask *Matrix[bool], accum BinaryOp[DC, DC, DC],
	op BinaryOp[DA, DS, DC], a *Matrix[DA], s DS, desc *Descriptor) error {
	if op == nil {
		return errf(NullPointer, "MatrixApplyBindSecond: nil operator")
	}
	return mapMatrix("MatrixApplyBindSecond", c, mask, accum, a, desc,
		func(in *sparse.CSR[DA], e sparse.Exec) *sparse.CSR[DC] {
			return sparse.ApplyM(in, func(v DA) DC { return op(v, s) }, e)
		})
}

// MatrixApplyBindFirstScalar is the Table II variant of MatrixApplyBindFirst
// taking the bound value from a GrB_Scalar. An empty scalar is an
// EmptyObject execution error, since every output value needs it.
func MatrixApplyBindFirstScalar[DC, DS, DA any](c *Matrix[DC], mask *Matrix[bool], accum BinaryOp[DC, DC, DC],
	op BinaryOp[DS, DA, DC], s *Scalar[DS], a *Matrix[DA], desc *Descriptor) error {
	v, err := scalarValue("MatrixApplyBindFirstScalar", s)
	if err != nil {
		return err
	}
	return MatrixApplyBindFirst(c, mask, accum, op, v, a, desc)
}

// MatrixApplyBindSecondScalar is the Table II variant of
// MatrixApplyBindSecond taking the bound value from a GrB_Scalar.
func MatrixApplyBindSecondScalar[DC, DA, DS any](c *Matrix[DC], mask *Matrix[bool], accum BinaryOp[DC, DC, DC],
	op BinaryOp[DA, DS, DC], a *Matrix[DA], s *Scalar[DS], desc *Descriptor) error {
	v, err := scalarValue("MatrixApplyBindSecondScalar", s)
	if err != nil {
		return err
	}
	return MatrixApplyBindSecond(c, mask, accum, op, a, v, desc)
}

// MatrixApplyIndexOp computes C⟨M⟩ = C ⊙ f(A, ind(A), s): the GraphBLAS 2.0
// index variant of apply (§VIII-B, Fig. 3). The operator sees each entry's
// value and its (row, col) position, plus the caller's scalar s. When A is
// transposed via the descriptor, indices refer to positions after the
// transpose, as the paper specifies.
func MatrixApplyIndexOp[DC, DA, DS any](c *Matrix[DC], mask *Matrix[bool], accum BinaryOp[DC, DC, DC],
	op IndexUnaryOp[DA, DS, DC], a *Matrix[DA], s DS, desc *Descriptor) error {
	if op == nil {
		return errf(NullPointer, "MatrixApplyIndexOp: nil operator")
	}
	return mapMatrix("MatrixApplyIndexOp", c, mask, accum, a, desc,
		func(in *sparse.CSR[DA], e sparse.Exec) *sparse.CSR[DC] {
			return sparse.ApplyIndexM(in, op, s, e)
		})
}

// MatrixApplyIndexOpScalar is the Table II variant of MatrixApplyIndexOp
// taking s from a GrB_Scalar.
func MatrixApplyIndexOpScalar[DC, DA, DS any](c *Matrix[DC], mask *Matrix[bool], accum BinaryOp[DC, DC, DC],
	op IndexUnaryOp[DA, DS, DC], a *Matrix[DA], s *Scalar[DS], desc *Descriptor) error {
	v, err := scalarValue("MatrixApplyIndexOpScalar", s)
	if err != nil {
		return err
	}
	return MatrixApplyIndexOp(c, mask, accum, op, a, v, desc)
}

// VectorApply computes w⟨m⟩ = w ⊙ f(u) (GrB_apply on vectors).
func VectorApply[DC, DA any](w *Vector[DC], mask *Vector[bool], accum BinaryOp[DC, DC, DC],
	op UnaryOp[DA, DC], u *Vector[DA], desc *Descriptor) error {
	if op == nil {
		return errf(NullPointer, "VectorApply: nil operator")
	}
	return mapVector("VectorApply", w, mask, accum, u, desc,
		func(in *sparse.Vec[DA]) *sparse.Vec[DC] {
			return sparse.ApplyV(in, op)
		})
}

// VectorApplyBindFirst computes w⟨m⟩ = w ⊙ f(s, u).
func VectorApplyBindFirst[DC, DS, DA any](w *Vector[DC], mask *Vector[bool], accum BinaryOp[DC, DC, DC],
	op BinaryOp[DS, DA, DC], s DS, u *Vector[DA], desc *Descriptor) error {
	if op == nil {
		return errf(NullPointer, "VectorApplyBindFirst: nil operator")
	}
	return mapVector("VectorApplyBindFirst", w, mask, accum, u, desc,
		func(in *sparse.Vec[DA]) *sparse.Vec[DC] {
			return sparse.ApplyV(in, func(v DA) DC { return op(s, v) })
		})
}

// VectorApplyBindSecond computes w⟨m⟩ = w ⊙ f(u, s).
func VectorApplyBindSecond[DC, DA, DS any](w *Vector[DC], mask *Vector[bool], accum BinaryOp[DC, DC, DC],
	op BinaryOp[DA, DS, DC], u *Vector[DA], s DS, desc *Descriptor) error {
	if op == nil {
		return errf(NullPointer, "VectorApplyBindSecond: nil operator")
	}
	return mapVector("VectorApplyBindSecond", w, mask, accum, u, desc,
		func(in *sparse.Vec[DA]) *sparse.Vec[DC] {
			return sparse.ApplyV(in, func(v DA) DC { return op(v, s) })
		})
}

// VectorApplyBindFirstScalar is the Table II GrB_Scalar variant of
// VectorApplyBindFirst.
func VectorApplyBindFirstScalar[DC, DS, DA any](w *Vector[DC], mask *Vector[bool], accum BinaryOp[DC, DC, DC],
	op BinaryOp[DS, DA, DC], s *Scalar[DS], u *Vector[DA], desc *Descriptor) error {
	v, err := scalarValue("VectorApplyBindFirstScalar", s)
	if err != nil {
		return err
	}
	return VectorApplyBindFirst(w, mask, accum, op, v, u, desc)
}

// VectorApplyBindSecondScalar is the Table II GrB_Scalar variant of
// VectorApplyBindSecond.
func VectorApplyBindSecondScalar[DC, DA, DS any](w *Vector[DC], mask *Vector[bool], accum BinaryOp[DC, DC, DC],
	op BinaryOp[DA, DS, DC], u *Vector[DA], s *Scalar[DS], desc *Descriptor) error {
	v, err := scalarValue("VectorApplyBindSecondScalar", s)
	if err != nil {
		return err
	}
	return VectorApplyBindSecond(w, mask, accum, op, u, v, desc)
}

// VectorApplyIndexOp computes w⟨m⟩ = w ⊙ f(u, ind(u), s): the index variant
// of apply on vectors (§VIII-B). The operator's col argument is always 0.
func VectorApplyIndexOp[DC, DA, DS any](w *Vector[DC], mask *Vector[bool], accum BinaryOp[DC, DC, DC],
	op IndexUnaryOp[DA, DS, DC], u *Vector[DA], s DS, desc *Descriptor) error {
	if op == nil {
		return errf(NullPointer, "VectorApplyIndexOp: nil operator")
	}
	return mapVector("VectorApplyIndexOp", w, mask, accum, u, desc,
		func(in *sparse.Vec[DA]) *sparse.Vec[DC] {
			return sparse.ApplyIndexV(in, op, s)
		})
}

// VectorApplyIndexOpScalar is the Table II variant of VectorApplyIndexOp
// taking s from a GrB_Scalar.
func VectorApplyIndexOpScalar[DC, DA, DS any](w *Vector[DC], mask *Vector[bool], accum BinaryOp[DC, DC, DC],
	op IndexUnaryOp[DA, DS, DC], u *Vector[DA], s *Scalar[DS], desc *Descriptor) error {
	v, err := scalarValue("VectorApplyIndexOpScalar", s)
	if err != nil {
		return err
	}
	return VectorApplyIndexOp(w, mask, accum, op, u, v, desc)
}

// scalarValue extracts the value of a GrB_Scalar argument, mapping an empty
// scalar to the EmptyObject execution error (§V, §VI).
func scalarValue[T any](opName string, s *Scalar[T]) (T, error) {
	var zero T
	if s == nil {
		return zero, errf(NullPointer, "%s: nil scalar", opName)
	}
	v, ok, err := s.ExtractElement()
	if err != nil {
		return zero, err
	}
	if !ok {
		return zero, errf(EmptyObject, "%s: empty scalar", opName)
	}
	return v, nil
}
