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
	if err := c.check(); err != nil {
		return err
	}
	if err := a.check(); err != nil {
		return err
	}
	if err := b.check(); err != nil {
		return err
	}
	if semiring.Add.Op == nil || semiring.Mul == nil {
		return errf(NullPointer, "MxM: semiring has nil operators")
	}
	ctxs := append([]*Context{c.ctx, a.ctx, b.ctx}, maskCtx(mask)...)
	ctx, err := sameContext(ctxs...)
	if err != nil {
		return err
	}
	d := desc.get()
	acsr, err := a.snapshot()
	if err != nil {
		return err
	}
	bcsr, err := b.snapshot()
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
	br, bc := bcsr.Rows, bcsr.Cols
	if d.Transpose1 {
		br, bc = bc, br
	}
	if ac != br {
		return errf(DimensionMismatch, "MxM: inner dimensions %d and %d differ", ac, br)
	}
	if cOld.Rows != ar || cOld.Cols != bc {
		return errf(DimensionMismatch, "MxM: output is %dx%d but product is %dx%d", cOld.Rows, cOld.Cols, ar, bc)
	}
	if err := checkMaskDimsM(mk, cOld.Rows, cOld.Cols); err != nil {
		return err
	}
	threads := ctx.threadsFor(acsr.NNZ() + bcsr.NNZ())
	var ev *obsv.Event
	if obsv.Active() {
		ev = evKernel("MxM").WithThreads(threads).
			A(acsr.Rows, acsr.Cols, acsr.NNZ()).B(bcsr.Rows, bcsr.Cols, bcsr.NNZ()).
			WithFlops(mxmFlops(acsr, bcsr, d.Transpose0, d.Transpose1))
	}
	return c.enqueue(ctx, ev, func() (*sparse.CSR[DC], error) {
		// Hardened execution environment, built at drain time so budget
		// charges and cancellation probes reflect execution order (§IV/§V).
		e := ctx.exec(threads)
		defer e.Close()
		if ev != nil {
			// Stamp the event from the kernel's own decision.
			e.Route = new(sparse.Route)
			defer func() {
				ev.Route, ev.RouteReason = e.Route.ProductLabel(sparse.Kernel(d.AxB)), e.Route.Reason.String()
			}()
		}
		A, err := maybeTransposeEx(acsr, d.Transpose0, e)
		if err != nil {
			return nil, err
		}
		B, err := maybeTransposeEx(bcsr, d.Transpose1, e)
		if err != nil {
			return nil, err
		}
		// The kernel applies the mask itself (mask-first, or at emit time):
		// that never changes the accumulated result, since the positions it
		// drops are the ones MaskApplyM would drop anyway.
		t, err := sparse.SpGEMMSemiEx(semiring.semi, sparse.Spec(d.Spec), A, B, semiring.Mul, semiring.Add.Op, mk, e, sparse.Kernel(d.AxB))
		if err != nil {
			return nil, err
		}
		// With no accumulator and nothing of C to keep, the write-back under
		// the mask would only copy t: the kernel admitted exactly the
		// positions MaskApplyM would.
		if accum == nil && mk.M != nil && (d.Replace || cOld.NNZ() == 0) {
			return t, nil
		}
		z := sparse.AccumMergeM(cOld, t, accum, threads)
		return sparse.MaskApplyM(cOld, z, mk, d.Replace, threads), nil
	})
}

// MxV computes w⟨m⟩ = w ⊙ (A ⊕.⊗ u): matrix–vector multiplication
// (GrB_mxv). The descriptor's Transpose0 flag transposes A; its Dir field
// pins the push/pull kernel choice (DirAuto routes by frontier and mask
// density, Beamer-style).
func MxV[DC, DA, DB any](w *Vector[DC], mask *Vector[bool], accum BinaryOp[DC, DC, DC],
	semiring Semiring[DA, DB, DC], a *Matrix[DA], u *Vector[DB], desc *Descriptor) error {
	if err := w.check(); err != nil {
		return err
	}
	if err := a.check(); err != nil {
		return err
	}
	if err := u.check(); err != nil {
		return err
	}
	// Pull gathers rows of the (possibly transposed) matrix as stored; push
	// scatters the frontier through the opposite orientation.
	d := desc.get()
	return matvec("MxV", w, mask, accum, semiring.semi, semiring.Add.Op, nil, semiring.Mul, a, u, d, !d.Transpose0)
}

// VxM computes w⟨m⟩ = w ⊙ (u ⊕.⊗ A): vector–matrix multiplication
// (GrB_vxm), the classic traversal primitive. The descriptor's Transpose1
// flag transposes A; its Dir field pins the push/pull kernel choice
// (DirAuto routes by frontier and mask density, Beamer-style).
func VxM[DC, DA, DB any](w *Vector[DC], mask *Vector[bool], accum BinaryOp[DC, DC, DC],
	semiring Semiring[DA, DB, DC], u *Vector[DA], a *Matrix[DB], desc *Descriptor) error {
	if err := w.check(); err != nil {
		return err
	}
	if err := u.check(); err != nil {
		return err
	}
	if err := a.check(); err != nil {
		return err
	}
	// Push scatters the frontier through rows of the (possibly transposed)
	// matrix as stored; pull gathers along output positions over the
	// opposite orientation, which a sparse non-complemented mask can prune
	// wholesale.
	d := desc.get()
	return matvec("VxM", w, mask, accum, semiring.semi, semiring.Add.Op, semiring.Mul, nil, a, u, d, d.Transpose1)
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
// kernels fold products in ascending input order, so for a given thread
// count they agree bit-identically whenever the monoid is associative on
// the data. Every family loop has a commutative multiply, so the argument
// swap is transparent to the specialized loops.
func matvec[DC, DM, DV any](op string, w *Vector[DC], mask *Vector[bool], accum BinaryOp[DC, DC, DC],
	semi sparse.Semi, add func(DC, DC) DC, mulPush func(DV, DM) DC, mulPull func(DM, DV) DC,
	a *Matrix[DM], u *Vector[DV], d Descriptor, pushT bool) error {
	if add == nil || (mulPush == nil && mulPull == nil) {
		return errf(NullPointer, "%s: semiring has nil operators", op)
	}
	ctxs := append([]*Context{w.ctx, a.ctx, u.ctx}, vmaskCtx(mask)...)
	ctx, err := sameContext(ctxs...)
	if err != nil {
		return err
	}
	acsr, err := a.snapshot()
	if err != nil {
		return err
	}
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
	inDim, outDim := acsr.Rows, acsr.Cols
	if pushT {
		inDim, outDim = outDim, inDim
	}
	if uvec.N != inDim {
		return errf(DimensionMismatch, "%s: vector has size %d but the matrix dimension it multiplies is %d", op, uvec.N, inDim)
	}
	if wOld.N != outDim {
		return errf(DimensionMismatch, "%s: output has size %d but product has size %d", op, wOld.N, outDim)
	}
	if err := checkMaskDimsV(mk, wOld.N); err != nil {
		return err
	}
	threads := ctx.threadsFor(acsr.NNZ())
	var ev *obsv.Event
	if obsv.Active() {
		ev = evKernel(op).WithThreads(threads)
		if mulPull != nil { // MxV: the matrix is the first operand
			ev.A(acsr.Rows, acsr.Cols, acsr.NNZ()).B(uvec.N, 1, uvec.NNZ())
		} else {
			ev.A(uvec.N, 1, uvec.NNZ()).B(acsr.Rows, acsr.Cols, acsr.NNZ())
		}
		// The frontier-flop bound Σ_{i∈u} nnz(R(i,:)) is free only when u
		// indexes stored rows; the other orientation would materialize the
		// transpose eagerly just because a sink is watching, so it reports
		// no estimate.
		if !pushT {
			ev.WithFlops(sparse.FrontierFlops(acsr, uvec))
		}
	}
	return w.enqueue(ctx, ev, func() (*sparse.Vec[DC], error) {
		e := ctx.exec(threads)
		defer e.Close()
		plan := sparse.PlanDir(sparse.Dir(d.Dir), uvec.NNZ(), inDim, mk, outDim)
		push, why := plan.Push, plan.Reason
		if ev != nil {
			// Stamp the event from the decisions themselves: the label from
			// the kernel that ran, the reason from the direction row unless
			// the budget overrode a route on the way.
			e.Route = new(sparse.Route)
			defer func() {
				rt := *e.Route
				rt.Push = push
				if rt.Reason.Budget() {
					why = rt.Reason
				}
				ev.Route, ev.RouteReason = rt.MatVecLabel(), why.String()
			}()
		}
		spec, hint := sparse.Spec(d.Spec), sparse.Kernel(d.AxB)
		var t *sparse.Vec[DC]
		var err error
		if push {
			var R *sparse.CSR[DM]
			R, err = maybeTransposeEx(acsr, pushT, e)
			if err == nil {
				mul := mulPush
				if mul == nil {
					mul = func(x DV, m DM) DC { return mulPull(m, x) }
				}
				t, err = sparse.VxMSemiEx(semi, spec, uvec, R, mul, add, mk, e)
			}
			// Budget degradation: the push route's scatter SPA (or the
			// transpose it rides on) did not fit, but nothing pinned push —
			// retry through the pull gather, which can run with a
			// frontier-sized hash gather.
			if err != nil && errors.Is(err, sparse.ErrBudget) && d.Dir == DirAuto {
				sparse.NoteBudgetDegrade()
				push, why, err = false, sparse.ReasonBudgetPush, nil
			}
		}
		if !push && err == nil {
			var G *sparse.CSR[DM]
			G, err = maybeTransposeEx(acsr, !pushT, e)
			if err == nil {
				mul := mulPull
				if mul == nil {
					mul = func(m DM, x DV) DC { return mulPush(x, m) }
				}
				t, err = sparse.SpMVSemiEx(semi, spec, G, uvec, mul, add, mk, e, hint)
			}
		}
		if err != nil {
			return nil, err
		}
		z := sparse.AccumMergeV(wOld, t, accum)
		return sparse.MaskApplyV(wOld, z, mk, d.Replace), nil
	})
}
