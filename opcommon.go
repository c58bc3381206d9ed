package grb

import (
	"errors"

	"github.com/grblas/grb/internal/sparse"
)

// snapMask completes a (possibly nil) matrix mask and bundles it with the
// descriptor's mask-interpretation flags for the kernels.
func snapMask(mask *Matrix[bool], d Descriptor) (sparse.Mask, error) {
	mk := sparse.Mask{Structural: d.Structure, Complement: d.Complement}
	if mask != nil {
		if err := mask.check(); err != nil {
			return mk, err
		}
		mcsr, err := mask.snapshot()
		if err != nil {
			return mk, err
		}
		mk.M = mcsr
	}
	return mk, nil
}

// snapVMask is the vector analogue of snapMask.
func snapVMask(mask *Vector[bool], d Descriptor) (sparse.VMask, error) {
	mk := sparse.VMask{Structural: d.Structure, Complement: d.Complement}
	if mask != nil {
		if err := mask.check(); err != nil {
			return mk, err
		}
		mvec, err := mask.snapshot()
		if err != nil {
			return mk, err
		}
		mk.M = mvec
	}
	return mk, nil
}

// maskCtx returns the context pointer of an optional mask for the shared-
// context check (§IV).
func maskCtx(mask *Matrix[bool]) []*Context {
	if mask == nil {
		return nil
	}
	return []*Context{mask.ctx}
}

// vmaskCtx is the vector analogue of maskCtx.
func vmaskCtx(mask *Vector[bool]) []*Context {
	if mask == nil {
		return nil
	}
	return []*Context{mask.ctx}
}

// checkMaskDimsM validates that a matrix mask matches the output shape.
func checkMaskDimsM(mk sparse.Mask, rows, cols int) error {
	if mk.M != nil && (mk.M.Rows != rows || mk.M.Cols != cols) {
		return errf(DimensionMismatch, "mask is %dx%d but output is %dx%d", mk.M.Rows, mk.M.Cols, rows, cols)
	}
	return nil
}

// checkMaskDimsV validates that a vector mask matches the output size.
func checkMaskDimsV(mk sparse.VMask, n int) error {
	if mk.M != nil && mk.M.N != n {
		return errf(DimensionMismatch, "mask has size %d but output has size %d", mk.M.N, n)
	}
	return nil
}

// maybeTranspose returns a (possibly) transposed view of a snapshot. The
// transposed view is memoized on the snapshot (sparse.TransposeCached), so
// repeated operations with a Transpose descriptor flag on an unmodified
// matrix materialize the transpose exactly once; mutations install a fresh
// snapshot with an empty cache, which is the only invalidation needed.
func maybeTranspose[T any](m *sparse.CSR[T], t bool) *sparse.CSR[T] {
	if t {
		return sparse.TransposeCached(m)
	}
	return m
}

// maybeTransposeEx is the hardened variant of maybeTranspose. The cached
// transpose holds memory for the snapshot's lifetime, so under a memory
// budget it is the first luxury dropped: when the persistent reservation
// does not fit, the transpose is rebuilt transiently instead (charged to the
// operation and released with its transaction), trading repeat work for
// residency. Only if even the transient build does not fit does ErrBudget
// reach the caller.
func maybeTransposeEx[T any](m *sparse.CSR[T], t bool, e sparse.Exec) (*sparse.CSR[T], error) {
	if !t {
		return m, nil
	}
	tt, err := sparse.TransposeCachedEx(m, e)
	if errors.Is(err, sparse.ErrBudget) {
		return sparse.TransposeEx(m, e)
	}
	return tt, err
}

// AsMask converts a numeric matrix into a boolean mask matrix: each stored
// entry maps to (value != 0), the C API's implicit cast-to-bool mask
// semantics. The result shares the input's context.
func AsMask[T Number](m *Matrix[T]) (*Matrix[bool], error) {
	return AsMaskFunc(m, func(v T) bool { return v != 0 })
}

// AsMaskFunc converts an arbitrary matrix into a boolean mask using pred to
// interpret stored values.
func AsMaskFunc[T any](m *Matrix[T], pred func(T) bool) (*Matrix[bool], error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	ctx, err := m.context()
	if err != nil {
		return nil, err
	}
	c, err := m.snapshot()
	if err != nil {
		return nil, err
	}
	// Immediate-mode kernel: isolate a panicking predicate (runStep).
	out, err := runStep("AsMask", func() (*sparse.CSR[bool], error) {
		return sparse.ApplyM(c, pred, ctx.threadsFor(c.NNZ())), nil
	})
	if err != nil {
		return nil, err
	}
	return &Matrix[bool]{init: true, ctx: m.ctx, csr: out}, nil
}

// AsVectorMask converts a numeric vector into a boolean mask vector
// (value != 0).
func AsVectorMask[T Number](v *Vector[T]) (*Vector[bool], error) {
	return AsVectorMaskFunc(v, func(x T) bool { return x != 0 })
}

// AsVectorMaskFunc converts an arbitrary vector into a boolean mask using
// pred to interpret stored values.
func AsVectorMaskFunc[T any](v *Vector[T], pred func(T) bool) (*Vector[bool], error) {
	if err := v.check(); err != nil {
		return nil, err
	}
	if _, err := v.context(); err != nil {
		return nil, err
	}
	s, err := v.snapshot()
	if err != nil {
		return nil, err
	}
	out, err := runStep("AsVectorMask", func() (*sparse.Vec[bool], error) {
		return sparse.ApplyV(s, pred), nil
	})
	if err != nil {
		return nil, err
	}
	return &Vector[bool]{init: true, ctx: v.ctx, vec: out}, nil
}
