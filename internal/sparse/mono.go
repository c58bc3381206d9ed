package sparse

import (
	"errors"
	"sort"
	"unsafe"

	"github.com/grblas/grb/internal/parallel"
)

// Monomorphized hot-semiring kernels. The generic kernels (SpGEMMKernelEx,
// SpMVKernelEx, VxMEx) evaluate the semiring through two closure calls per
// product — exactly the per-scalar function-call overhead §II of the paper
// motivates eliminating. For the handful of semirings that dominate graph
// workloads the grb layer tags the operation with a Semi constant, and the
// SemiEx entry points here route it to a hand-monomorphized loop whose
// multiply-add compiles to direct arithmetic. Everything else — unknown
// semirings, non-hot value types, hash-pinned accumulators, sparse-pinned
// formats — falls back to the closure kernel, so the specialization is
// invisible except in the route labels and the clock.
//
// Equivalence discipline: every monomorphized loop replicates its closure
// kernel's product visit order, first-assign-then-add accumulation, mask
// admission points, partition fold order and output sorting, so the
// differential battery (mono_differential_test.go) can compare the two with
// == even on float64. The shared pieces (reduceSpas, installStitched,
// vmaskLookup/vmaskBitmap, chooseHash) are literally the same code.

// Semi tags the hot semirings the monomorphized kernel table covers. The
// grb-layer constructors (PlusTimes, MinPlus, LOrLAnd, PlusPair) set the
// tag; hand-assembled Semiring values stay SemiGeneric and always take the
// closure kernels. All four families have commutative multiplies, so the
// push/pull orientation flip (mulFlip in MxV/VxM) is transparent to them.
type Semi int

const (
	// SemiGeneric is an untagged semiring: closure kernels only.
	SemiGeneric Semi = iota
	// SemiPlusTimes is (+, ×) over int64/float64.
	SemiPlusTimes
	// SemiMinPlus is (min, +) over int64/float64.
	SemiMinPlus
	// SemiLorLand is (∨, ∧) over bool.
	SemiLorLand
	// SemiPlusPair is (+, pair) over int64/float64 — structure-only
	// counting (triangle counting, degree computations).
	SemiPlusPair
)

// String names the tag for route labels and test output.
func (s Semi) String() string {
	switch s {
	case SemiPlusTimes:
		return "plus_times"
	case SemiMinPlus:
		return "min_plus"
	case SemiLorLand:
		return "lor_land"
	case SemiPlusPair:
		return "plus_pair"
	default:
		return "generic"
	}
}

// Spec is the descriptor-level pin for the monomorphized route, mirroring
// Kernel (accumulator pin) and the push/pull Direction pin.
type Spec int

const (
	// SpecAuto takes the monomorphized kernel whenever the semiring tag,
	// value types and format routing admit it.
	SpecAuto Spec = iota
	// SpecMono forces the monomorphized kernel even where the router would
	// prefer the closure path (e.g. hypersparse operands that would
	// otherwise hash-gather). Falls back only when the semiring or value
	// types cannot be specialized at all.
	SpecMono
	// SpecGeneric forces the closure kernels — the differential battery's
	// reference arm.
	SpecGeneric
)

// monoArith constrains the arithmetic hot types. int64 and float64 have
// distinct gcshapes, so loops instantiated over this constraint compile to
// direct integer/float instructions rather than dictionary-indirect calls.
type monoArith interface {
	~int64 | ~float64
}

// monoEnabled is the common routing gate: a tagged semiring and no generic
// pin.
func monoEnabled(semi Semi, spec Spec) bool {
	return semi != SemiGeneric && spec != SpecGeneric
}

// castVec converts *Vec[T] to *Vec[Y]; the dispatch has already proven
// T == Y, so the assertion cannot fail on non-nil input.
func castVec[T, Y any](v *Vec[T]) *Vec[Y] {
	if v == nil {
		return nil
	}
	out, _ := any(v).(*Vec[Y])
	return out
}

// castCSR is castVec for matrices.
func castCSR[T, Y any](m *CSR[T]) *CSR[Y] {
	if m == nil {
		return nil
	}
	out, _ := any(m).(*CSR[Y])
	return out
}

// sameVecType reports whether Vec[T] and Vec[Y] are the same instantiation,
// i.e. T == Y exactly (named types with a hot underlying type do not match
// — they stay on the closure kernels).
func sameVecType[T, Y any]() bool {
	_, ok := any((*Vec[T])(nil)).(*Vec[Y])
	return ok
}

// SpMVSemiEx is the semiring-routed pull product: it runs the monomorphized
// gather loop when the Semi tag, the operand types and the format router
// admit it, and falls back to SpMVKernelEx (the closure kernel) otherwise.
// mul/add are always supplied so the fallback needs no second dispatch.
func SpMVSemiEx[A, X, Y any](semi Semi, spec Spec, a *CSR[A], u *Vec[X],
	mul func(A, X) Y, add func(Y, Y) Y, mask VMask, e Exec, hint Kernel) (*Vec[Y], error) {
	if monoEnabled(semi, spec) {
		if out, handled, err := monoSpMVDispatch[A, X, Y](semi, spec, a, u, mask, e, hint); handled {
			return out, err
		}
	}
	closureFallbacks.Add(1)
	return SpMVKernelEx(a, u, mul, add, mask, e, hint)
}

// monoSpMVDispatch narrows the type parameters onto a concrete hot type and
// runs the matching family loop. handled == false means "not specializable
// here" (wrong types, hash-routed, budget refusal) and the caller falls
// back to the closure kernel.
func monoSpMVDispatch[A, X, Y any](semi Semi, spec Spec, a *CSR[A], u *Vec[X],
	mask VMask, e Exec, hint Kernel) (*Vec[Y], bool, error) {
	switch semi {
	case SemiPlusTimes:
		if a2, u2, ok := monoVecOperands[A, X, Y, int64](a, u); ok {
			out, handled, err := spmvMono(a2, u2, mask, e, hint, spec, spmvRowsPlusTimes[int64], gemvRowsPlusTimes[int64])
			return castVec[int64, Y](out), handled, err
		}
		if a2, u2, ok := monoVecOperands[A, X, Y, float64](a, u); ok {
			out, handled, err := spmvMono(a2, u2, mask, e, hint, spec, spmvRowsPlusTimes[float64], gemvRowsPlusTimes[float64])
			return castVec[float64, Y](out), handled, err
		}
	case SemiMinPlus:
		if a2, u2, ok := monoVecOperands[A, X, Y, int64](a, u); ok {
			out, handled, err := spmvMono(a2, u2, mask, e, hint, spec, spmvRowsMinPlus[int64], gemvRowsMinPlus[int64])
			return castVec[int64, Y](out), handled, err
		}
		if a2, u2, ok := monoVecOperands[A, X, Y, float64](a, u); ok {
			out, handled, err := spmvMono(a2, u2, mask, e, hint, spec, spmvRowsMinPlus[float64], gemvRowsMinPlus[float64])
			return castVec[float64, Y](out), handled, err
		}
	case SemiLorLand:
		if a2, u2, ok := monoVecOperands[A, X, Y, bool](a, u); ok {
			out, handled, err := spmvMono(a2, u2, mask, e, hint, spec, spmvRowsLorLand, nil)
			return castVec[bool, Y](out), handled, err
		}
	case SemiPlusPair:
		if a2, u2, ok := monoVecOperands[A, X, Y, int64](a, u); ok {
			out, handled, err := spmvMono(a2, u2, mask, e, hint, spec, spmvRowsPlusPair[int64], nil)
			return castVec[int64, Y](out), handled, err
		}
		if a2, u2, ok := monoVecOperands[A, X, Y, float64](a, u); ok {
			out, handled, err := spmvMono(a2, u2, mask, e, hint, spec, spmvRowsPlusPair[float64], nil)
			return castVec[float64, Y](out), handled, err
		}
	case SemiGeneric:
	}
	return nil, false, nil
}

// monoVecOperands narrows a matrix-vector operand pair onto hot type T,
// requiring all three domains (A, X, Y) to be exactly T.
func monoVecOperands[A, X, Y, T any](a *CSR[A], u *Vec[X]) (*CSR[T], *Vec[T], bool) {
	a2, ok := any(a).(*CSR[T])
	if !ok {
		return nil, nil, false
	}
	u2, ok := any(u).(*Vec[T])
	if !ok {
		return nil, nil, false
	}
	if !sameVecType[T, Y]() {
		return nil, nil, false
	}
	return a2, u2, true
}

// spmvRowLoop is one family's monomorphized gather loop over CSR rows
// [lo, hi) against the block view (dval, dbit) of u; dbit == nil means the
// full view. It returns the emitted (row, value) pairs in ascending row
// order, replicating the closure kernel's per-row accumulation exactly.
type spmvRowLoop[T any] func(a *CSR[T], dval []T, dbit []bool, admit func(int) bool, lo, hi int) ([]int, []T)

// gemvRowLoop is the family's fully-dense fast path: both the matrix block
// (row-major mval) and the vector block are full, so the row loop is a
// textbook GEMV row sweep with no index indirection at all.
type gemvRowLoop[T any] func(mval []T, cols int, dval []T, admit func(int) bool, lo, hi int) ([]int, []T)

// spmvMono is the shared scaffold of the monomorphized pull product: it
// routes (falling back on hash-preferring shapes unless pinned), acquires
// the cached block view of u, partitions rows, and assembles the output —
// everything except the per-row arithmetic, which the family loop supplies.
func spmvMono[T any](a *CSR[T], u *Vec[T], mask VMask, e Exec, hint Kernel, spec Spec,
	rows spmvRowLoop[T], gemv gemvRowLoop[T]) (out *Vec[T], handled bool, err error) {
	if hint == KernelHash {
		// A pinned hash gather is a closure-kernel request; the block view
		// would defeat the pin's point (frontier-sized scratch).
		return nil, false, nil
	}
	if spec != SpecMono && chooseHash(hint, u.NNZ(), u.N) {
		// Hypersparse frontier: the closure kernel's hash gather beats
		// densifying u into an O(N) block.
		return nil, false, nil
	}
	defer func() {
		// A panic anywhere past this point — including inside DenseViewEx,
		// before handled is assigned — means the kernel engaged: park the
		// recovered error instead of letting the dispatcher retry the
		// closure kernel over a half-consumed fault.
		if r := recover(); r != nil {
			err = panicToError(r)
			handled = true
		}
	}()
	dv, derr := u.DenseViewEx(e)
	if derr != nil {
		if errors.Is(derr, ErrBudget) {
			// The block view does not fit the budget; the closure kernel
			// can still run with a frontier-sized hash gather.
			budgetDegrades.Add(1)
			return nil, false, nil
		}
		return nil, true, derr
	}
	handled = true
	monoKernels.Add(1)
	pullCalls.Add(1)
	denseRanges.Add(1)
	threads := e.threads()
	admit := vmaskLookup(mask, a.Rows)
	if gemv != nil && dv.Bit == nil && a.Cols > 0 {
		if size, ok := CheckedMul(a.Rows, a.Cols); ok && a.NNZ() == size {
			// Fully dense product: gather through the matrix's block view
			// too. Full CSR rows store columns 0..Cols-1 in order, so the
			// GEMV sweep visits products in exactly the closure kernel's
			// order.
			dm, merr := a.DenseViewEx(e)
			if merr != nil && !errors.Is(merr, ErrBudget) {
				return nil, true, merr
			}
			if merr == nil {
				// A completely dense matrix always gets the full view.
				return spmvMonoDense(a.Rows, a.Cols, dm.Val, dv.Val, admit, e, threads, gemv), true, nil
			}
			// Budget refusal: keep the CSR row loop below, which needs no
			// matrix-side scratch.
			budgetDegrades.Add(1)
		}
	}
	parts := parallel.BalancedRanges(a.Rows, threads, a.Ptr)
	nparts := len(parts) - 1
	pInd := make([][]int, nparts)
	pVal := make([][]T, nparts)
	parallel.Run(parts, threads, func(part, lo, hi int) {
		if ferr := siteMonoLoop.Check(); ferr != nil {
			abort(ferr)
		}
		e.checkpoint()
		pInd[part], pVal[part] = rows(a, dv.Val, dv.Bit, admit, lo, hi)
	})
	return stitchVec(a.Rows, pInd, pVal), true, nil
}

// spmvMonoDense runs the GEMV fast path over row ranges.
func spmvMonoDense[T any](rows, cols int, mval, dval []T, admit func(int) bool,
	e Exec, threads int, gemv gemvRowLoop[T]) *Vec[T] {
	parts := parallel.Ranges(rows, threads)
	nparts := len(parts) - 1
	pInd := make([][]int, nparts)
	pVal := make([][]T, nparts)
	parallel.Run(parts, threads, func(part, lo, hi int) {
		if ferr := siteMonoLoop.Check(); ferr != nil {
			abort(ferr)
		}
		e.checkpoint()
		pInd[part], pVal[part] = gemv(mval, cols, dval, admit, lo, hi)
	})
	return stitchVec(rows, pInd, pVal)
}

// VxMSemiEx is the semiring-routed push product: monomorphized scatter when
// the tag, types and mask shape admit it, VxMEx (closures) otherwise.
func VxMSemiEx[X, A, Y any](semi Semi, spec Spec, u *Vec[X], a *CSR[A],
	mul func(X, A) Y, add func(Y, Y) Y, mask VMask, e Exec) (*Vec[Y], error) {
	if monoEnabled(semi, spec) {
		if out, handled, err := monoVxMDispatch[X, A, Y](semi, spec, u, a, add, mask, e); handled {
			return out, err
		}
	}
	closureFallbacks.Add(1)
	return VxMEx(u, a, mul, add, mask, e)
}

// monoVxMDispatch narrows the push product onto a hot type. The add closure
// rides along (asserted to its concrete type) because the partition
// reduction is shared with the generic kernel — it folds once per output
// column, amortized, so closures cost nothing there and guarantee the
// identical fold.
func monoVxMDispatch[X, A, Y any](semi Semi, spec Spec, u *Vec[X], a *CSR[A],
	add func(Y, Y) Y, mask VMask, e Exec) (*Vec[Y], bool, error) {
	switch semi {
	case SemiPlusTimes:
		if u2, a2, ok := monoVxMOperands[X, A, Y, int64](u, a); ok {
			add2, _ := any(add).(func(int64, int64) int64)
			out, handled, err := vxmMono(u2, a2, add2, mask, e, spec, vxmScatterPlusTimes[int64])
			return castVec[int64, Y](out), handled, err
		}
		if u2, a2, ok := monoVxMOperands[X, A, Y, float64](u, a); ok {
			add2, _ := any(add).(func(float64, float64) float64)
			out, handled, err := vxmMono(u2, a2, add2, mask, e, spec, vxmScatterPlusTimes[float64])
			return castVec[float64, Y](out), handled, err
		}
	case SemiMinPlus:
		if u2, a2, ok := monoVxMOperands[X, A, Y, int64](u, a); ok {
			add2, _ := any(add).(func(int64, int64) int64)
			out, handled, err := vxmMono(u2, a2, add2, mask, e, spec, vxmScatterMinPlus[int64])
			return castVec[int64, Y](out), handled, err
		}
		if u2, a2, ok := monoVxMOperands[X, A, Y, float64](u, a); ok {
			add2, _ := any(add).(func(float64, float64) float64)
			out, handled, err := vxmMono(u2, a2, add2, mask, e, spec, vxmScatterMinPlus[float64])
			return castVec[float64, Y](out), handled, err
		}
	case SemiLorLand:
		if u2, a2, ok := monoVxMOperands[X, A, Y, bool](u, a); ok {
			add2, _ := any(add).(func(bool, bool) bool)
			out, handled, err := vxmMono(u2, a2, add2, mask, e, spec, vxmScatterLorLand)
			return castVec[bool, Y](out), handled, err
		}
	case SemiPlusPair:
		if u2, a2, ok := monoVxMOperands[X, A, Y, int64](u, a); ok {
			add2, _ := any(add).(func(int64, int64) int64)
			out, handled, err := vxmMono(u2, a2, add2, mask, e, spec, vxmScatterPlusPair[int64])
			return castVec[int64, Y](out), handled, err
		}
		if u2, a2, ok := monoVxMOperands[X, A, Y, float64](u, a); ok {
			add2, _ := any(add).(func(float64, float64) float64)
			out, handled, err := vxmMono(u2, a2, add2, mask, e, spec, vxmScatterPlusPair[float64])
			return castVec[float64, Y](out), handled, err
		}
	case SemiGeneric:
	}
	return nil, false, nil
}

// monoVxMOperands narrows a vector-matrix operand pair onto hot type T.
func monoVxMOperands[X, A, Y, T any](u *Vec[X], a *CSR[A]) (*Vec[T], *CSR[T], bool) {
	u2, ok := any(u).(*Vec[T])
	if !ok {
		return nil, nil, false
	}
	a2, ok := any(a).(*CSR[T])
	if !ok {
		return nil, nil, false
	}
	if !sameVecType[T, Y]() {
		return nil, nil, false
	}
	return u2, a2, true
}

// vxmScatterLoop is one family's monomorphized scatter over the frontier
// entries [lo, hi) of u: products land in the worker's private SPA with
// first-assign-then-add semantics (mark tracks presence), admitted by the
// compiled mask bitmap (nil admits everything). Returns the SPA's insertion
// pattern, exactly as the closure kernel builds it.
type vxmScatterLoop[T any] func(u *Vec[T], a *CSR[T], admit []bool, spa []T, mark []bool, lo, hi int) []int

// vxmMono is the shared scaffold of the monomorphized push product,
// mirroring VxMEx: frontier partitioning, per-worker SPA charging, the
// family scatter, then the shared reduceSpas fold.
func vxmMono[T any](u *Vec[T], a *CSR[T], add func(T, T) T, mask VMask, e Exec, spec Spec,
	scatter vxmScatterLoop[T]) (out *Vec[T], handled bool, err error) {
	if mask.M != nil && spec != SpecMono && chooseHash(KernelAuto, mask.M.NNZ(), a.Cols) {
		// A hypersparse mask over a wide output is the hash-predicate
		// regime: compiling it to an O(Cols) bitmap would cost more than
		// the closure kernel's hash lookups save.
		return nil, false, nil
	}
	defer recoverExec(&err)
	handled = true
	monoKernels.Add(1)
	pushCalls.Add(1)
	if mask.M == nil && mask.Complement {
		// Complemented nil mask admits nothing (as in VxMEx).
		return NewVec[T](a.Cols), true, nil
	}
	threads := e.threads()
	nu := u.NNZ()
	if threads > nu {
		threads = nu
	}
	if threads < 1 {
		threads = 1
	}
	var zero T
	spaBytes := int64(a.Cols) * int64(unsafe.Sizeof(zero)+1)
	threads = degradeThreads(e, threads, spaBytes)
	parts := parallel.Ranges(nu, threads)
	nparts := len(parts) - 1
	if nparts == 0 {
		return NewVec[T](a.Cols), true, nil
	}
	var admit []bool
	if mask.M != nil {
		admit = vmaskBitmap(mask, a.Cols)
	}
	spas := make([][]T, nparts)
	marks := make([][]bool, nparts)
	patterns := make([][]int, nparts)
	parallel.Run(parts, threads, func(part, lo, hi int) {
		if ferr := siteMonoLoop.Check(); ferr != nil {
			abort(ferr)
		}
		e.checkpoint()
		e.mustCharge(siteMonoSpa, spaBytes)
		spa := make([]T, a.Cols)
		mark := make([]bool, a.Cols)
		scratchBytes.Add(spaBytes)
		patterns[part] = scatter(u, a, admit, spa, mark, lo, hi)
		spas[part] = spa
		marks[part] = mark
	})
	return reduceSpas(a.Cols, threads, spas, marks, patterns, add), true, nil
}

// SpGEMMSemiEx is the semiring-routed matrix product: monomorphized
// dense-SPA row loops when the tag and types admit it, SpGEMMKernelEx
// otherwise. Hash-routed row ranges inside a monomorphized call still
// evaluate the closures (mul/add always ride along): the hash probe
// dominates those ranges, not the multiply-add, so specializing them would
// complicate the table for no measurable win.
func SpGEMMSemiEx[A, B, C any](semi Semi, spec Spec, a *CSR[A], b *CSR[B],
	mul func(A, B) C, add func(C, C) C, mask Mask, e Exec, hint Kernel) (*CSR[C], error) {
	if monoEnabled(semi, spec) && hint != KernelHash {
		if out, handled, err := monoSpGEMMDispatch[A, B, C](semi, a, b, mul, add, mask, e, hint); handled {
			return out, err
		}
	}
	closureFallbacks.Add(1)
	return SpGEMMKernelEx(a, b, mul, add, mask, e, hint)
}

// monoSpGEMMDispatch narrows the matrix product onto a hot type.
func monoSpGEMMDispatch[A, B, C any](semi Semi, a *CSR[A], b *CSR[B],
	mul func(A, B) C, add func(C, C) C, mask Mask, e Exec, hint Kernel) (*CSR[C], bool, error) {
	switch semi {
	case SemiPlusTimes:
		if a2, b2, mul2, add2, ok := monoMatOperands[A, B, C, int64](a, b, mul, add); ok {
			out, err := spgemmMono(a2, b2, mul2, add2, mask, e, hint, spgemmRowPlusTimes[int64])
			return castCSR[int64, C](out), true, err
		}
		if a2, b2, mul2, add2, ok := monoMatOperands[A, B, C, float64](a, b, mul, add); ok {
			out, err := spgemmMono(a2, b2, mul2, add2, mask, e, hint, spgemmRowPlusTimes[float64])
			return castCSR[float64, C](out), true, err
		}
	case SemiMinPlus:
		if a2, b2, mul2, add2, ok := monoMatOperands[A, B, C, int64](a, b, mul, add); ok {
			out, err := spgemmMono(a2, b2, mul2, add2, mask, e, hint, spgemmRowMinPlus[int64])
			return castCSR[int64, C](out), true, err
		}
		if a2, b2, mul2, add2, ok := monoMatOperands[A, B, C, float64](a, b, mul, add); ok {
			out, err := spgemmMono(a2, b2, mul2, add2, mask, e, hint, spgemmRowMinPlus[float64])
			return castCSR[float64, C](out), true, err
		}
	case SemiLorLand:
		if a2, b2, mul2, add2, ok := monoMatOperands[A, B, C, bool](a, b, mul, add); ok {
			out, err := spgemmMono(a2, b2, mul2, add2, mask, e, hint, spgemmRowLorLand)
			return castCSR[bool, C](out), true, err
		}
	case SemiPlusPair:
		if a2, b2, mul2, add2, ok := monoMatOperands[A, B, C, int64](a, b, mul, add); ok {
			out, err := spgemmMono(a2, b2, mul2, add2, mask, e, hint, spgemmRowPlusPair[int64])
			return castCSR[int64, C](out), true, err
		}
		if a2, b2, mul2, add2, ok := monoMatOperands[A, B, C, float64](a, b, mul, add); ok {
			out, err := spgemmMono(a2, b2, mul2, add2, mask, e, hint, spgemmRowPlusPair[float64])
			return castCSR[float64, C](out), true, err
		}
	case SemiGeneric:
	}
	return nil, false, nil
}

// monoMatOperands narrows a matrix pair and its closures onto hot type T.
func monoMatOperands[A, B, C, T any](a *CSR[A], b *CSR[B],
	mul func(A, B) C, add func(C, C) C) (*CSR[T], *CSR[T], func(T, T) T, func(T, T) T, bool) {
	a2, ok := any(a).(*CSR[T])
	if !ok {
		return nil, nil, nil, nil, false
	}
	b2, ok := any(b).(*CSR[T])
	if !ok {
		return nil, nil, nil, nil, false
	}
	mul2, ok := any(mul).(func(T, T) T)
	if !ok {
		return nil, nil, nil, nil, false
	}
	add2, ok := any(add).(func(T, T) T)
	if !ok {
		return nil, nil, nil, nil, false
	}
	return a2, b2, mul2, add2, true
}

// spgemmRowLoop is one family's monomorphized dense-SPA product loop for
// row i: scatter row i of A through B into (spa, stamp) with generation gen,
// appending new columns to pattern — the closure kernel's dense branch with
// the two closure calls flattened into arithmetic.
type spgemmRowLoop[T any] func(a, b *CSR[T], spa []T, stamp []int, gen int, pattern []int, i int) []int

// spgemmMono is the monomorphized matrix product: SpGEMMKernelEx's exact
// scaffolding (symbolic pass, balanced ranges, per-range dense/hash routing,
// masked emission, stitched install) with the dense branch's product loop
// supplied by the family. Hash-routed ranges keep the closure loop.
func spgemmMono[T any](a, b *CSR[T], mul, add func(T, T) T, mask Mask, e Exec, hint Kernel,
	rowLoop spgemmRowLoop[T]) (out *CSR[T], err error) {
	defer recoverExec(&err)
	monoKernels.Add(1)
	threads := e.threads()
	fptr := SpGEMMFlops(a, b, threads)
	slot := slotBytes[T]()
	denseBytes := int64(b.Cols) * slot
	if e.Tx != nil && threads > 1 {
		maxRow := 0
		for i := 0; i < a.Rows; i++ {
			if f := fptr[i+1] - fptr[i]; f > maxRow {
				maxRow = f
			}
		}
		per := denseBytes
		if hb := int64(hashCapacity(maxRow)) * slot; hb < per {
			per = hb
		}
		threads = degradeThreads(e, threads, per)
	}
	out = NewCSR[T](a.Rows, b.Cols)
	parts := parallel.BalancedRanges(a.Rows, threads, fptr)
	nparts := len(parts) - 1
	notePartSpan(parts, fptr, threads)
	pInd := make([][]int, nparts)
	pVal := make([][]T, nparts)
	// The stitch row-length table scales with the output rows, so it is
	// metered like worker scratch.
	if cerr := e.charge(siteMonoLoop, int64(a.Rows)*8); cerr != nil {
		return nil, cerr
	}
	rowLen := make([]int, a.Rows)
	masked := mask.M != nil || mask.Complement
	parallel.Run(parts, threads, func(part, lo, hi int) {
		if ferr := siteMonoLoop.Check(); ferr != nil {
			abort(ferr)
		}
		e.checkpoint()
		rangeFlops := fptr[hi] - fptr[lo]
		maxFlops := 0
		for i := lo; i < hi; i++ {
			if f := fptr[i+1] - fptr[i]; f > maxFlops {
				maxFlops = f
			}
		}
		var ind []int
		var val []T
		pattern := make([]int, 0, 256)
		var mInd []int
		var mVal []bool
		mk := 0
		admit := func(j int) bool {
			mt := maskTest(mInd, mVal, mask.Structural, j, &mk)
			if mask.Complement {
				mt = !mt
			}
			return mt
		}
		useHash := chooseHash(hint, rangeFlops, b.Cols)
		hashBytes := int64(hashCapacity(maxFlops)) * slot
		if !useHash && e.Tx != nil && !e.Tx.Fits(denseBytes) && hashBytes < denseBytes {
			useHash = true
			budgetDegrades.Add(1)
		}
		if useHash {
			// Closure loop, verbatim from SpGEMMKernelEx: hash ranges are
			// probe-bound, not multiply-bound.
			hashRanges.Add(1)
			e.mustCharge(siteSpGEMMHash, hashBytes)
			var h hashAccum[T]
			h.ensure(maxFlops)
			for i := lo; i < hi; i++ {
				pattern = pattern[:0]
				aInd, aVal := a.Row(i)
				for k := range aInd {
					bInd, bVal := b.Row(aInd[k])
					av := aVal[k]
					for t := range bInd {
						j := bInd[t]
						p := mul(av, bVal[t])
						s := h.slot(j)
						if h.keys[s] == -1 {
							h.keys[s] = j
							h.vals[s] = p
							h.slots = append(h.slots, s)
							pattern = append(pattern, j)
						} else {
							h.vals[s] = add(h.vals[s], p)
						}
					}
				}
				sort.Ints(pattern)
				start := len(ind)
				if masked {
					if mask.M != nil {
						mInd, mVal = mask.M.Row(i)
					}
					mk = 0
					for _, j := range pattern {
						if admit(j) {
							ind = append(ind, j)
							val = append(val, h.vals[h.slot(j)])
						}
					}
				} else {
					for _, j := range pattern {
						ind = append(ind, j)
						val = append(val, h.vals[h.slot(j)])
					}
				}
				rowLen[i] = len(ind) - start
				h.reset()
			}
		} else {
			denseRanges.Add(1)
			e.mustCharge(siteMonoSpa, denseBytes)
			spa := make([]T, b.Cols)
			stamp := make([]int, b.Cols)
			scratchBytes.Add(denseBytes)
			for i := lo; i < hi; i++ {
				pattern = rowLoop(a, b, spa, stamp, i+1, pattern[:0], i)
				sort.Ints(pattern)
				start := len(ind)
				if masked {
					if mask.M != nil {
						mInd, mVal = mask.M.Row(i)
					}
					mk = 0
					for _, j := range pattern {
						if admit(j) {
							ind = append(ind, j)
							val = append(val, spa[j])
						}
					}
				} else {
					for _, j := range pattern {
						ind = append(ind, j)
						val = append(val, spa[j])
					}
				}
				rowLen[i] = len(ind) - start
			}
		}
		pInd[part] = ind
		pVal[part] = val
	})
	installStitched(out, parts, pInd, pVal, rowLen)
	return out, nil
}
