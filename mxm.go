package grb

import (
	"errors"

	"github.com/grblas/grb/internal/obsv"
	"github.com/grblas/grb/internal/sparse"
)

// MxM computes C⟨M⟩ = C ⊙ (A ⊕.⊗ B): sparse matrix–matrix multiplication
// over an arbitrary semiring (GrB_mxm), with optional mask M, accumulator ⊙
// and descriptor (transpose inputs, replace output, structural/complemented
// mask). In nonblocking mode the product is appended to C's sequence and
// deferred (§III).
func MxM[DC, DA, DB any](c *Matrix[DC], mask *Matrix[bool], accum BinaryOp[DC, DC, DC],
	semiring Semiring[DA, DB, DC], a *Matrix[DA], b *Matrix[DB], desc *Descriptor) error {
	f := newFrame("MxM", desc, semiring.Add.Op != nil && semiring.Mul != nil, maskRef{m: mask}, c, a, b)
	acsr, bcsr, cOld := in(&f, a), in(&f, b), old(&f, c)
	if err := f.ready(); err != nil {
		return err
	}
	d, mk := f.d, f.mask.matrix()
	ar, ac := transposedDims(acsr, d.Transpose0)
	br, bc := transposedDims(bcsr, d.Transpose1)
	if ac != br {
		return errf(DimensionMismatch, "MxM: inner dimensions %d and %d differ", ac, br)
	}
	if cOld.Rows != ar || cOld.Cols != bc {
		return errf(DimensionMismatch, "MxM: output is %dx%d but product is %dx%d", cOld.Rows, cOld.Cols, ar, bc)
	}
	if f.ev != nil {
		f.ev.A(acsr.Rows, acsr.Cols, acsr.NNZ()).B(bcsr.Rows, bcsr.Cols, bcsr.NNZ()).
			WithFlops(mxmFlops(acsr, bcsr, d.Transpose0, d.Transpose1))
		f.label = sparse.Route.ProductLabel
	}
	// The kernel applies the mask itself, mask-first or at emit time.
	y := kernelMasked(yieldsT, accum != nil, mk.M != nil, d.Replace, cOld.NNZ())
	return c.submit(&f, cOld, y, accum, func(e sparse.Exec) (*sparse.CSR[DC], error) {
		A, err := maybeTranspose(acsr, d.Transpose0, e)
		if err != nil {
			return nil, err
		}
		B, err := maybeTranspose(bcsr, d.Transpose1, e)
		if err != nil {
			return nil, err
		}
		return sparse.SpGEMMSemiEx(semiring.semi, sparse.SpecAuto, A, B, semiring.Mul, semiring.Add.Op, mk, e, sparse.KernelAuto)
	})
}

// kernelMasked is the yield of a product whose kernel applies the mask
// itself, y being what it yields otherwise. Masking in the kernel never
// changes the accumulated result, since the positions it drops are the ones
// the write-back would drop anyway. So with no accumulator, a mask and
// nothing of C to keep — replace, or an empty C — the write-back under the
// mask would only copy what the kernel returned, and that is C.
func kernelMasked(y yield, accum, masked, replace bool, nnzC int) yield {
	if !accum && masked && (replace || nnzC == 0) {
		return yieldsC
	}
	return y
}

// MxV computes w⟨m⟩ = w ⊙ (A ⊕.⊗ u): matrix–vector multiplication
// (GrB_mxv). The descriptor's Transpose0 flag transposes A; its Dir field
// pins the push/pull kernel choice (DirAuto routes by the edges each
// touches, Beamer-style: sparse.PlanDir).
func MxV[DC, DA, DB any](w *Vector[DC], mask *Vector[bool], accum BinaryOp[DC, DC, DC],
	semiring Semiring[DA, DB, DC], a *Matrix[DA], u *Vector[DB], desc *Descriptor) error {
	f := newFrame("MxV", desc, semiring.Add.Op != nil && semiring.Mul != nil, maskRef{v: mask}, w, a, u)
	// Pull gathers rows of the (possibly transposed) matrix as stored; push
	// scatters the frontier through the opposite orientation.
	return matvec(&f, w, accum, semiring.semi, semiring.Add.Op, nil, semiring.Mul, a, u, !f.d.Transpose0)
}

// VxM computes w⟨m⟩ = w ⊙ (u ⊕.⊗ A): vector–matrix multiplication
// (GrB_vxm), the classic traversal primitive. The descriptor's Transpose1
// flag transposes A; its Dir field pins the push/pull kernel choice
// (DirAuto routes by the edges each touches, Beamer-style: sparse.PlanDir).
func VxM[DC, DA, DB any](w *Vector[DC], mask *Vector[bool], accum BinaryOp[DC, DC, DC],
	semiring Semiring[DA, DB, DC], u *Vector[DA], a *Matrix[DB], desc *Descriptor) error {
	f := newFrame("VxM", desc, semiring.Add.Op != nil && semiring.Mul != nil, maskRef{v: mask}, w, u, a)
	// Push scatters the frontier through rows of the (possibly transposed)
	// matrix as stored; pull gathers along output positions over the
	// opposite orientation, which a sparse non-complemented mask can prune
	// wholesale.
	return matvec(&f, w, accum, semiring.semi, semiring.Add.Op, semiring.Mul, nil, a, u, f.d.Transpose1)
}

// matvec is the one body of MxV and VxM: w⟨m⟩ = w ⊙ t with
// t(j) = ⊕_i u(i) ⊗ R(i,j), where R — the push orientation, whose rows the
// frontier indexes — is a's stored form (pushT false) or its transpose
// (pushT true), and the pull kernel gathers over Rᵀ. Exactly one of
// mulPush (vector × matrix operand order) and mulPull (matrix × vector) is
// the semiring's multiply as the caller wrote it; the other is nil and
// derived by swapping arguments when that kernel runs.
//
// Direction-optimizing dispatch: the transpose cache makes the other
// orientation free to obtain after the first materialization, and both
// kernels fold each output's products in ascending input order at every
// thread count, so they agree bit-identically on any semiring. Every family
// loop has a commutative multiply, so the argument swap is transparent to
// the specialized loops.
func matvec[DC, DM, DV any](f *frame, w *Vector[DC], accum BinaryOp[DC, DC, DC],
	semi sparse.Semi, add func(DC, DC) DC, mulPush func(DV, DM) DC, mulPull func(DM, DV) DC,
	a *Matrix[DM], u *Vector[DV], pushT bool) error {
	acsr, uvec, wOld := in(f, a), in(f, u), in(f, w)
	if err := f.ready(); err != nil {
		return err
	}
	op, d, mk := f.op, f.d, f.mask.vector()
	inDim, outDim := transposedDims(acsr, pushT)
	if uvec.N != inDim {
		return errf(DimensionMismatch, "%s: vector has size %d but the matrix dimension it multiplies is %d", op, uvec.N, inDim)
	}
	if wOld.N != outDim {
		return errf(DimensionMismatch, "%s: output has size %d but product has size %d", op, wOld.N, outDim)
	}
	if f.ev != nil {
		if mulPull != nil { // MxV: the matrix is the first operand
			f.ev.A(acsr.Rows, acsr.Cols, acsr.NNZ()).B(uvec.N, 1, uvec.NNZ())
		} else {
			f.ev.A(uvec.N, 1, uvec.NNZ()).B(acsr.Rows, acsr.Cols, acsr.NNZ())
		}
	}
	// The plan routes by the frontier-flop bound Σ_{i∈u} nnz(R(i,:)), which
	// the event reports.
	plan, products := sparse.PlanDir(sparse.Dir(d.Dir), acsr, pushT, uvec, mk)
	f.ev.WithFlops(int64(products))
	f.label = sparse.Route.MatVecLabel
	// The kernel takes the accumulator: a pull into a full w under no mask
	// writes w ⊙ t in one pass and never stores t (sparse.SpMVAccumEx); every
	// other route merges t into w's old state itself. Both directions mask as
	// they go, the push in its scatter and the pull at row admission.
	y := kernelMasked(yieldsZ, accum != nil, mk.M != nil, d.Replace, wOld.NNZ())
	return w.submit(f, wOld, y, accum, func(e sparse.Exec) (*sparse.Vec[DC], error) {
		push, why := plan.Push, plan.Reason
		if e.Route != nil {
			// The step labels the event from what the kernel that ran wrote
			// to e.Route; add the direction, and its reason unless the
			// budget overrode a route on the way.
			defer func() {
				e.Route.Push = push
				if !e.Route.Reason.Budget() {
					e.Route.Reason = why
				}
			}()
		}
		var z *sparse.Vec[DC]
		var err error
		if push {
			var R *sparse.CSR[DM]
			R, err = maybeTranspose(acsr, pushT, e)
			if err == nil {
				mul := mulPush
				if mul == nil {
					mul = func(x DV, m DM) DC { return mulPull(m, x) }
				}
				var t *sparse.Vec[DC]
				if t, err = sparse.VxMSemiEx(semi, sparse.SpecAuto, uvec, R, mul, add, mk, e); err == nil {
					z = sparse.AccumMergeV(wOld, t, accum)
				}
			}
			// Budget degradation: the push route's scatter SPA (or the
			// transpose it rides on) did not fit, but nothing pinned push —
			// release what the push reserved and retry through the pull
			// gather, which can run with a frontier-sized hash gather.
			if err != nil && errors.Is(err, sparse.ErrBudget) && d.Dir == DirAuto {
				e.Close()
				obsv.BudgetDegrades.Add(1)
				push, why, err = false, sparse.ReasonBudgetPush, nil
			}
		}
		if !push && err == nil {
			var G *sparse.CSR[DM]
			G, err = maybeTranspose(acsr, !pushT, e)
			if err == nil {
				mul := mulPull
				if mul == nil {
					mul = func(m DM, x DV) DC { return mulPush(x, m) }
				}
				z, err = sparse.SpMVAccumEx(semi, G, uvec, mul, add, mk, wOld, accum, binOf(accum), e, sparse.KernelAuto)
			}
		}
		return z, err
	})
}
