package grb

import (
	"errors"

	"github.com/grblas/grb/internal/obsv"
	"github.com/grblas/grb/internal/sparse"
)

// frame is the call-time half of one operation C⟨M, replace⟩ = C ⊙ T: the
// prologue every operation repeats, in the order the paper's error model
// fixes it. newFrame validates the objects, the operators and the shared
// context; in completes the inputs and then the output, in argument order;
// ready completes the mask. From there the operation file states only what
// is its own — its dimension rule, its flop estimate, its kernel — and hands
// the frame to the output's submit, which appends the node.
//
// The first error sticks in err and turns the remaining stages into no-ops,
// so a failed stage reads nothing further (a snapshot is a drain: it must
// not run past an API error) and one check after ready reports it.
type frame struct {
	op      string
	err     error
	ctx     *Context   // the context the operation executes in
	d       Descriptor // desc, with nil read as the default
	maskArg maskRef
	mask    maskSnap
	ev      *obsv.Event // nil unless a sink is observing
	label   func(sparse.Route) string
}

// operand is any Matrix or Vector taking part in an operation.
type operand interface {
	check() error
	ownContext() *Context
}

// maskRef is an operation's optional mask argument: a matrix mask, a vector
// mask, or neither.
type maskRef struct {
	m *Matrix[bool]
	v *Vector[bool]
}

// newFrame opens the frame of operation op on operands (output first):
// every operand is a live object, the operation's own operators are present
// (opsOK, evaluated by the caller), and operands and mask share a context
// (§IV).
func newFrame(op string, desc *Descriptor, opsOK bool, mask maskRef, operands ...operand) frame {
	f := frame{op: op, maskArg: mask}
	var buf [4]*Context // output, at most two inputs, mask
	ctxs := buf[:0]
	for _, o := range operands {
		if f.err = o.check(); f.err != nil {
			return f
		}
		ctxs = append(ctxs, o.ownContext())
	}
	if !opsOK {
		f.err = errf(NullPointer, "%s: nil operator", op)
		return f
	}
	if mask.m != nil {
		ctxs = append(ctxs, mask.m.ctx)
	}
	if mask.v != nil {
		ctxs = append(ctxs, mask.v.ctx)
	}
	if f.ctx, f.err = sameContext(ctxs...); f.err != nil {
		return f
	}
	if f.d = desc.get(); f.d.Dir < DirAuto || f.d.Dir > DirPull {
		f.err = errf(InvalidValue, "%s: descriptor direction %d is not DirAuto, DirPush or DirPull", op, f.d.Dir)
		return f
	}
	f.ev = evKernel(op)
	return f
}

// in completes an operand and returns its storage: an operation reads the
// completed state of its inputs and of its output as they are at the call.
func in[S any](f *frame, o interface{ snapshot() (S, error) }) (s S) {
	if f.err == nil {
		s, f.err = o.snapshot()
	}
	return s
}

// ready completes the mask — the last read of the prologue — and reports the
// prologue's first error.
func (f *frame) ready() error {
	if f.err != nil {
		return f.err
	}
	f.mask = maskSnap{Structural: f.d.Structure, Complement: f.d.Complement}
	if m := f.maskArg.m; m != nil {
		if f.err = m.check(); f.err == nil {
			f.mask.M, f.err = m.snapshot()
		}
	}
	if v := f.maskArg.v; v != nil {
		if f.err = v.check(); f.err == nil {
			f.mask.V, f.err = v.snapshot()
		}
	}
	return f.err
}

// indexList validates a caller's index list against [0, n) and returns the
// deferred step's own copy of it with the number of positions it selects.
// nil is grb.All — every index, n positions; a non-nil empty list selects
// none, and stays non-nil in the copy.
func indexList(op, what string, idx []Index, n int) ([]Index, int, error) {
	if idx == nil {
		return nil, n, nil
	}
	for _, i := range idx {
		if i < 0 || i >= n {
			return nil, 0, errf(InvalidIndex, "%s: %s %d outside [0, %d)", op, what, i, n)
		}
	}
	return append([]Index{}, idx...), len(idx), nil
}

// transposedDims returns a snapshot's shape as an operation sees it under a
// Transpose descriptor flag.
func transposedDims[T any](m *sparse.CSR[T], t bool) (rows, cols int) {
	if t {
		return m.Cols, m.Rows
	}
	return m.Rows, m.Cols
}

// checkMaskDimsV validates that a vector mask matches the extent it guards.
func checkMaskDimsV(mk *sparse.Vec[bool], n int) error {
	if mk != nil && mk.N != n {
		return errf(DimensionMismatch, "mask has size %d but output has size %d", mk.N, n)
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
		return sparse.ApplyM(c, pred, ctx.fork()), nil
	})
	if err != nil {
		return nil, err
	}
	return newMatrix(m.ctx, out), nil
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
	return newVector(v.ctx, out), nil
}
