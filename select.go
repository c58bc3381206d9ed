package grb

import "github.com/grblas/grb/internal/sparse"

// MatrixSelect computes C⟨M⟩ = C ⊙ A⟨f(A, ind(A), s)⟩: the GraphBLAS 2.0
// select operation (§VIII-C of the paper, Fig. 3), a "functional input
// mask". The boolean index operator decides per stored entry whether it is
// kept (true) or annihilated (false). Predefined operators from Table IV —
// TriL, TriU, Diag, Offdiag, RowLE/RowGT/ColLE/ColGT and the Value*
// comparison family — cover the common cases. TriL through ColGT at bool or
// float64 run as row cuts that call no operator (selectTags); any other
// operator, a wrapper around one of them included, is called per entry.
func MatrixSelect[DA, DS any](c *Matrix[DA], mask *Matrix[bool], accum BinaryOp[DA, DA, DA],
	op IndexUnaryOp[DA, DS, bool], a *Matrix[DA], s DS, desc *Descriptor) error {
	if op == nil {
		return errf(NullPointer, "MatrixSelect: nil operator")
	}
	if cut := cutOf(op); cut != sparse.CutNone {
		si := any(s).(int) // every tagged operator takes an int s
		return mapMatrix("MatrixSelect", c, mask, accum, a, desc,
			func(in *sparse.CSR[DA], e sparse.Exec) *sparse.CSR[DA] {
				return sparse.SelectCutM(in, cut, si, e)
			})
	}
	return mapMatrix("MatrixSelect", c, mask, accum, a, desc,
		func(in *sparse.CSR[DA], e sparse.Exec) *sparse.CSR[DA] {
			return sparse.SelectM(in, op, s, e)
		})
}

// MatrixSelectScalar is the Table II variant of MatrixSelect taking the
// threshold scalar s from a GrB_Scalar. An empty scalar is an EmptyObject
// execution error.
func MatrixSelectScalar[DA, DS any](c *Matrix[DA], mask *Matrix[bool], accum BinaryOp[DA, DA, DA],
	op IndexUnaryOp[DA, DS, bool], a *Matrix[DA], s *Scalar[DS], desc *Descriptor) error {
	v, err := scalarValue("MatrixSelectScalar", s)
	if err != nil {
		return err
	}
	return MatrixSelect(c, mask, accum, op, a, v, desc)
}

// VectorSelect computes w⟨m⟩ = w ⊙ u⟨f(u, ind(u), s)⟩: select on vectors
// (§VIII-C). The operator's col argument is always 0.
func VectorSelect[DA, DS any](w *Vector[DA], mask *Vector[bool], accum BinaryOp[DA, DA, DA],
	op IndexUnaryOp[DA, DS, bool], u *Vector[DA], s DS, desc *Descriptor) error {
	if op == nil {
		return errf(NullPointer, "VectorSelect: nil operator")
	}
	return mapVector("VectorSelect", w, mask, accum, u, desc,
		func(in *sparse.Vec[DA]) *sparse.Vec[DA] {
			return sparse.SelectV(in, op, s)
		})
}

// VectorSelectScalar is the Table II variant of VectorSelect taking s from
// a GrB_Scalar.
func VectorSelectScalar[DA, DS any](w *Vector[DA], mask *Vector[bool], accum BinaryOp[DA, DA, DA],
	op IndexUnaryOp[DA, DS, bool], u *Vector[DA], s *Scalar[DS], desc *Descriptor) error {
	v, err := scalarValue("VectorSelectScalar", s)
	if err != nil {
		return err
	}
	return VectorSelect(w, mask, accum, op, u, v, desc)
}
