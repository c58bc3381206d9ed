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
		ev = evKernel("MxM").WithRoute(routeName(d.AxB)).WithThreads(threads).
			A(acsr.Rows, acsr.Cols, acsr.NNZ()).B(bcsr.Rows, bcsr.Cols, bcsr.NNZ()).
			WithFlops(mxmFlops(acsr, bcsr, d.Transpose0, d.Transpose1))
	}
	return c.enqueue(ctx, ev, func() (*sparse.CSR[DC], error) {
		// Hardened execution environment, built at drain time so budget
		// charges and cancellation probes reflect execution order (§IV/§V).
		e := ctx.exec(threads)
		defer e.Close()
		A, err := maybeTransposeEx(acsr, d.Transpose0, e)
		if err != nil {
			return nil, err
		}
		B, err := maybeTransposeEx(bcsr, d.Transpose1, e)
		if err != nil {
			return nil, err
		}
		// The mask prunes the product at emit time only when it does not
		// change the accumulated result: pruned positions would be dropped
		// by MaskApplyM anyway.
		semi, spec := specRoute(d.Spec, semiring.semi)
		t, err := sparse.SpGEMMSemiEx(semi, spec, A, B, semiring.Mul, semiring.Add.Op, mk, e, kernelHint(d.AxB))
		if err != nil {
			return nil, err
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
	if semiring.Add.Op == nil || semiring.Mul == nil {
		return errf(NullPointer, "MxV: semiring has nil operators")
	}
	ctxs := append([]*Context{w.ctx, a.ctx, u.ctx}, vmaskCtx(mask)...)
	ctx, err := sameContext(ctxs...)
	if err != nil {
		return err
	}
	d := desc.get()
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
	ar, ac := acsr.Rows, acsr.Cols
	if d.Transpose0 {
		ar, ac = ac, ar
	}
	if ac != uvec.N {
		return errf(DimensionMismatch, "MxV: matrix has %d columns but vector has size %d", ac, uvec.N)
	}
	if wOld.N != ar {
		return errf(DimensionMismatch, "MxV: output has size %d but product has size %d", wOld.N, ar)
	}
	if err := checkMaskDimsV(mk, wOld.N); err != nil {
		return err
	}
	threads := ctx.threadsFor(acsr.NNZ())
	// Direction-optimizing dispatch: pull gathers rows of the (possibly
	// transposed) matrix; push scatters the frontier's entries through the
	// opposite orientation, which the transpose cache makes free to obtain
	// after the first materialization. Both orientations fold products in
	// ascending input order, so for a given thread count the two kernels
	// agree bit-identically whenever the monoid is associative on the data.
	usePush := chooseDir(d.Dir, uvec.NNZ(), ac, mk, ar)
	var ev *obsv.Event
	if obsv.Active() {
		ev = evKernel("MxV").WithRoute(pushPull(usePush)).WithThreads(threads).
			A(acsr.Rows, acsr.Cols, acsr.NNZ()).B(uvec.N, 1, uvec.NNZ())
		// The frontier-flop bound Σ_{i∈u} nnz(A(i,:)) is free only when u
		// indexes stored rows; the other orientation would materialize Aᵀ
		// eagerly just because a sink is watching, so it reports no estimate.
		if d.Transpose0 {
			ev.WithFlops(sparse.FrontierFlops(acsr, uvec))
		}
	}
	return w.enqueue(ctx, ev, func() (*sparse.Vec[DC], error) {
		e := ctx.exec(threads)
		defer e.Close()
		var t *sparse.Vec[DC]
		var err error
		push := usePush
		// Every monomorphized family has a commutative multiply, so the
		// orientation flip below is transparent to the specialized loops.
		semi, spec := specRoute(d.Spec, semiring.semi)
		if push {
			var At *sparse.CSR[DA]
			At, err = maybeTransposeEx(acsr, !d.Transpose0, e)
			if err == nil {
				mulFlip := func(x DB, a DA) DC { return semiring.Mul(a, x) }
				t, err = sparse.VxMSemiEx(semi, spec, uvec, At, mulFlip, semiring.Add.Op, mk, e)
			}
			// Budget degradation: the push route's scatter SPA (or the
			// transpose it rides on) did not fit, but the heuristic did not
			// pin push — retry through the pull gather, which can run with a
			// frontier-sized hash accumulator.
			if err != nil && errors.Is(err, sparse.ErrBudget) && d.Dir == DirAuto {
				sparse.NoteBudgetDegrade()
				push, err = false, nil
			}
		}
		if !push && err == nil {
			var A *sparse.CSR[DA]
			A, err = maybeTransposeEx(acsr, d.Transpose0, e)
			if err == nil {
				t, err = sparse.SpMVSemiEx(semi, spec, A, uvec, semiring.Mul, semiring.Add.Op, mk, e, kernelHint(d.AxB))
			}
		}
		if err != nil {
			return nil, err
		}
		z := sparse.AccumMergeV(wOld, t, accum)
		return sparse.MaskApplyV(wOld, z, mk, d.Replace), nil
	})
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
	if semiring.Add.Op == nil || semiring.Mul == nil {
		return errf(NullPointer, "VxM: semiring has nil operators")
	}
	ctxs := append([]*Context{w.ctx, u.ctx, a.ctx}, vmaskCtx(mask)...)
	ctx, err := sameContext(ctxs...)
	if err != nil {
		return err
	}
	d := desc.get()
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
	ar, ac := acsr.Rows, acsr.Cols
	if d.Transpose1 {
		ar, ac = ac, ar
	}
	if uvec.N != ar {
		return errf(DimensionMismatch, "VxM: vector has size %d but matrix has %d rows", uvec.N, ar)
	}
	if wOld.N != ac {
		return errf(DimensionMismatch, "VxM: output has size %d but product has size %d", wOld.N, ac)
	}
	if err := checkMaskDimsV(mk, wOld.N); err != nil {
		return err
	}
	threads := ctx.threadsFor(acsr.NNZ())
	// Direction-optimizing dispatch, mirroring MxV: push scatters the
	// frontier through rows of A; pull gathers along output positions over
	// the cached transpose, which a sparse non-complemented mask can prune
	// wholesale.
	usePush := chooseDir(d.Dir, uvec.NNZ(), ar, mk, ac)
	var ev *obsv.Event
	if obsv.Active() {
		ev = evKernel("VxM").WithRoute(pushPull(usePush)).WithThreads(threads).
			A(uvec.N, 1, uvec.NNZ()).B(acsr.Rows, acsr.Cols, acsr.NNZ())
		if !d.Transpose1 {
			ev.WithFlops(sparse.FrontierFlops(acsr, uvec))
		}
	}
	return w.enqueue(ctx, ev, func() (*sparse.Vec[DC], error) {
		e := ctx.exec(threads)
		defer e.Close()
		var t *sparse.Vec[DC]
		var err error
		push := usePush
		// The commutative-multiply note from MxV applies to the pull-side
		// flip below as well.
		semi, spec := specRoute(d.Spec, semiring.semi)
		if push {
			var A *sparse.CSR[DB]
			A, err = maybeTransposeEx(acsr, d.Transpose1, e)
			if err == nil {
				t, err = sparse.VxMSemiEx(semi, spec, uvec, A, semiring.Mul, semiring.Add.Op, mk, e)
			}
			// Budget degradation, mirroring MxV: when auto-routed push cannot
			// charge its scatter SPA, retry via the pull gather.
			if err != nil && errors.Is(err, sparse.ErrBudget) && d.Dir == DirAuto {
				sparse.NoteBudgetDegrade()
				push, err = false, nil
			}
		}
		if !push && err == nil {
			var At *sparse.CSR[DB]
			At, err = maybeTransposeEx(acsr, !d.Transpose1, e)
			if err == nil {
				mulFlip := func(a DB, x DA) DC { return semiring.Mul(x, a) }
				t, err = sparse.SpMVSemiEx(semi, spec, At, uvec, mulFlip, semiring.Add.Op, mk, e, kernelHint(d.AxB))
			}
		}
		if err != nil {
			return nil, err
		}
		z := sparse.AccumMergeV(wOld, t, accum)
		return sparse.MaskApplyV(wOld, z, mk, d.Replace), nil
	})
}
