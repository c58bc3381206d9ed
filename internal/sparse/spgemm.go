package sparse

import (
	"sort"

	"github.com/grblas/grb/internal/parallel"
)

// SpGEMMSemiEx computes T = A ·(⊕,⊗) B over an arbitrary semiring with
// Gustavson's row-wise algorithm — the one matrix-product kernel.
//
// A cheap symbolic pass (SpGEMMFlops) first computes per-row flop upper
// bounds. Rows of A are then partitioned by *flop* balance — not nnz(A)
// balance — across up to e.Threads workers, so a single skewed row no longer
// serializes a worker. Each row range picks its accumulator independently
// (planRange):
//
//   - dense SPA: a width-B.Cols value buffer reused across rows via
//     generation stamps. O(B.Cols) scratch per worker, O(1) per product.
//   - hash SPA: an open-addressing table presized from the heaviest row's
//     flop bound, so it never rehashes mid-row. O(maxRowFlops) scratch per
//     worker — the hypersparse-regime accumulator, for when B.Cols dwarfs
//     the work the whole range actually does.
//
// Both accumulators visit products in identical (k, t) order and sort each
// row's pattern before emitting, so their outputs are identical down to
// floating-point rounding — the property the differential harness asserts.
//
// The dense branch's product loop is the plug-in point: when semi tags a hot
// semiring and A, B, C are exactly one of its hot element types (and spec
// does not pin SpecGeneric), the family loop from monokernels.go runs there
// with the two closure calls flattened into arithmetic. Hash ranges always
// evaluate mul/add: the probe dominates them, not the multiply-add.
//
// If mask.M is non-nil (or mask.Complement is set), output entries are
// filtered at emit time: only positions admitted by the mask are stored.
// This is the "masked SpGEMM" used by e.g. Sandia triangle counting; it
// prunes memory (and the sort) even though products are still formed.
//
// The execution environment is threaded through every allocation and range
// boundary. Degradation order under memory pressure: halve workers (fewer
// concurrently-live accumulators), then prefer the hash SPA over the dense
// one per range when the dense workspace no longer fits, and only when even
// the cheapest route cannot be charged does it return ErrBudget. A panic
// anywhere inside — worker goroutines included — comes back as an error, not
// a crash.
func SpGEMMSemiEx[A, B, C any](semi Semi, spec Spec, a *CSR[A], b *CSR[B],
	mul func(A, B) C, add func(C, C) C, mask Mask, e Exec, hint Kernel) (out *CSR[C], err error) {
	defer recoverExec(&err)
	rowLoop := familyLoop[func(*CSR[A], *CSR[B], []C, []int, int, []int, int) []int](&spgemmLoops, semi, spec)
	call := planProduct(planIn{hint: hint, hasLoop: rowLoop != nil})
	e.note(call)
	// The family loops keep their own fault sites, so the chaos sweep can
	// fail a product inside a specialized loop and inside the closure one.
	loopSite, spaSite := siteSpGEMMDense, siteSpGEMMDense
	if call.Family {
		monoKernels.Add(1)
		loopSite, spaSite = siteMonoLoop, siteMonoSpa
	} else {
		closureFallbacks.Add(1)
		rowLoop = nil
	}
	threads := e.threads()
	fptr := SpGEMMFlops(a, b, threads)
	slot := slotBytes[C]()
	denseBytes := int64(b.Cols) * slot
	if e.Tx != nil && threads > 1 {
		// Per-worker scratch lower bound: whichever accumulator is cheaper for
		// the heaviest row (the hash table is sized from it).
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
	out = NewCSR[C](a.Rows, b.Cols)
	parts := parallel.BalancedRanges(a.Rows, threads, fptr)
	nparts := len(parts) - 1
	notePartSpan(parts, fptr, threads)
	pInd := make([][]int, nparts)
	pVal := make([][]C, nparts)
	// The stitch row-length table scales with the output rows, so it is
	// metered like worker scratch.
	if cerr := e.charge(loopSite, int64(a.Rows)*8); cerr != nil {
		return nil, cerr
	}
	rowLen := make([]int, a.Rows)
	var picked []Route // per-range routes, kept only for an observing caller
	if e.Route != nil {
		picked = make([]Route, nparts)
	}
	masked := mask.M != nil || mask.Complement
	parallel.Run(parts, threads, func(part, lo, hi int) {
		if call.Family {
			if ferr := siteMonoLoop.Check(); ferr != nil {
				abort(ferr)
			}
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
		var val []C
		pattern := make([]int, 0, 256)
		// admit reports whether the mask passes position j of row i, using a
		// per-row cursor; pattern is sorted, so the cursor only advances.
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
		hashBytes := int64(hashCapacity(maxFlops)) * slot
		rt := planRange(planIn{hint: hint, work: rangeFlops, width: b.Cols,
			denseFits: e.Tx.Fits(denseBytes), hashSmaller: hashBytes < denseBytes})
		if rt.Reason.Budget() {
			budgetDegrades.Add(1)
		}
		if picked != nil {
			picked[part] = rt
		}
		if rt.Acc == AccHash {
			hashRanges.Add(1)
			e.mustCharge(siteSpGEMMHash, hashBytes)
			var h hashAccum[C]
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
			e.mustCharge(spaSite, denseBytes)
			spa := make([]C, b.Cols)
			stamp := make([]int, b.Cols) // generation marks; row i is generation i+1
			scratchBytes.Add(denseBytes)
			// A family loop takes its pattern buffer through an indirect
			// call, so that buffer lives on the heap; keeping it apart lets
			// the closure loop's stay on the stack.
			var famPattern []int
			if rowLoop != nil {
				famPattern = make([]int, 0, 256)
			}
			for i := lo; i < hi; i++ {
				gen := i + 1
				if rowLoop != nil {
					famPattern = rowLoop(a, b, spa, stamp, gen, famPattern[:0], i)
					pattern = famPattern
				} else {
					pattern = pattern[:0]
					aInd, aVal := a.Row(i)
					for k := range aInd {
						bInd, bVal := b.Row(aInd[k])
						av := aVal[k]
						for t := range bInd {
							j := bInd[t]
							p := mul(av, bVal[t])
							if stamp[j] != gen {
								stamp[j] = gen
								spa[j] = p
								pattern = append(pattern, j)
							} else {
								spa[j] = add(spa[j], p)
							}
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
	if picked != nil {
		e.note(mergeRanges(call, picked))
	}
	return out, nil
}

// CheckedMul returns x*y and whether the product is representable (no signed
// overflow). Shapes and nnz counts are nonnegative, so a negative product
// always means wraparound.
func CheckedMul(x, y int) (int, bool) {
	if x == 0 || y == 0 {
		return 0, true
	}
	p := x * y
	if p/y != x || p < 0 {
		return 0, false
	}
	return p, true
}

// Kron computes the Kronecker product T = A ⊗kron B with the given multiply
// operator: T is (A.Rows*B.Rows) × (A.Cols*B.Cols) and
// T(i*Br+k, j*Bc+l) = mul(A(i,j), B(k,l)) for every pair of stored entries.
// If the output shape or entry count overflows the int range, it returns
// ErrTooLarge before allocating anything (the grb layer maps this onto
// GrB_OUT_OF_MEMORY). A panic inside the fan-out (a faulty multiply
// operator) parks as an error instead of crossing the API boundary.
func Kron[A, B, C any](a *CSR[A], b *CSR[B], mul func(A, B) C, threads int) (out *CSR[C], err error) {
	defer recoverExec(&err)
	rows, okR := CheckedMul(a.Rows, b.Rows)
	cols, okC := CheckedMul(a.Cols, b.Cols)
	nnz, okN := CheckedMul(a.NNZ(), b.NNZ())
	if !okR || !okC || !okN {
		return nil, ErrTooLarge
	}
	out = NewCSR[C](rows, cols)
	if nnz == 0 {
		return out, nil
	}
	out.Ind = make([]int, nnz)
	out.Val = make([]C, nnz)
	// Row (ia*b.Rows + ib) holds nnz(A row ia) * nnz(B row ib) entries.
	for i := 0; i < rows; i++ {
		ia, ib := i/b.Rows, i%b.Rows
		out.Ptr[i+1] = out.Ptr[i] + (a.Ptr[ia+1]-a.Ptr[ia])*(b.Ptr[ib+1]-b.Ptr[ib])
	}
	parallel.For(rows, threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ia, ib := i/b.Rows, i%b.Rows
			aInd, aVal := a.Row(ia)
			bInd, bVal := b.Row(ib)
			p := out.Ptr[i]
			for k := range aInd {
				base := aInd[k] * b.Cols
				for t := range bInd {
					out.Ind[p] = base + bInd[t]
					out.Val[p] = mul(aVal[k], bVal[t])
					p++
				}
			}
		}
	})
	return out, nil
}
