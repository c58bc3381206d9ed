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
//     generation stamps (two generations per row). O(B.Cols) scratch per
//     worker, O(1) per product.
//   - hash SPA: an open-addressing table presized from the heaviest row's
//     flop bound, so it never rehashes mid-row. O(maxRowFlops) scratch per
//     worker — the hypersparse-regime accumulator, for when B.Cols dwarfs
//     the work the whole range actually does.
//
// Every route visits products in identical (k, t) order, assigns a column's
// first product and folds the rest, and emits each row in ascending column
// order, so their outputs are identical down to floating-point rounding —
// the property the differential harness asserts.
//
// A dense range under a non-complemented mask no heavier than the range's
// work runs mask-first (planRange): row i's admitted mask columns are
// stamped before the products, each B row's positions on a stamped column are
// compacted into a small buffer without a data-dependent branch
// (stampedHits) and only those are multiplied and accumulated, and the row is
// emitted by walking the (sorted) mask row: no pattern list, no sort, no
// filter, and the output is allocated once at the range's mask nnz. This is
// the masked SpGEMM of Sandia triangle counting, C⟨L⟩ = L +.pair L, doing
// only the work the mask admits.
//
// Every other range forms all products and filters by the mask, if any, at
// emit time. A dense one first counts its pattern in a stamp-only symbolic
// pass over the same scratch, so the output is allocated once (exactly, when
// unmasked), and emits a row whose pattern would cost more to sort than the
// stamp array costs to scan by that scan (scanEmit). Its product loop is the
// plug-in point: when semi tags a hot semiring and A, B, C are exactly one of
// its hot element types, the family loop from monokernels.go runs there with
// the two closure calls flattened into arithmetic. Hash and mask-first ranges
// always evaluate mul/add: the hash probe dominates the one, and the other
// calls them for the admitted few only.
//
// The execution environment is threaded through every allocation and range
// boundary, and the cancellation hook is also polled every pollFlops flops
// inside a range, so a deadline interrupts a one-range product. Degradation
// order under memory pressure: halve workers (fewer concurrently-live
// accumulators), then prefer the hash SPA over the dense one per range when
// the dense workspace no longer fits, and only when even the cheapest route
// cannot be charged does it return ErrBudget. A panic anywhere inside —
// worker goroutines included — comes back as an error, not a crash.
func SpGEMMSemiEx[A, B, C any](semi Semi, _ Spec, a *CSR[A], b *CSR[B],
	mul func(A, B) C, add func(C, C) C, mask Mask, e Exec, hint Kernel) (out *CSR[C], err error) {
	defer recoverExec(&err)
	rowLoop := familyLoop[func(*CSR[A], *CSR[B], []C, []int, int, []int, int) []int](spgemmLoops[:], semi)
	call := planProduct(planIn{hint: hint, hasLoop: rowLoop != nil})
	// What the ranges ran, not what the call admitted, is counted and
	// published — on every exit, so a call that fails before any range still
	// reports its plan.
	var ran []Route
	defer func() {
		call = mergeRanges(call, ran)
		if call.Family {
			monoKernels.Add(1)
		} else {
			closureFallbacks.Add(1)
		}
		e.note(call)
	}()
	// The family loops keep their own fault sites, so the chaos sweep can
	// fail a product inside a specialized loop and inside the closure one.
	loopSite, spaSite := siteSpGEMMDense, siteSpGEMMDense
	if call.Family {
		loopSite, spaSite = siteMonoLoop, siteMonoSpa
	} else {
		rowLoop = nil
	}
	fptr := SpGEMMFlops(a, b, e.workers(a.NNZ())) // the symbolic pass reads A
	threads := e.workers(fptr[a.Rows])            // the products the ranges will form
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
	ran = make([]Route, nparts)
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
		// tick polls for cancellation once per pollFlops flops of rows begun.
		sincePoll := 0
		tick := func(i int) {
			if sincePoll += fptr[i+1] - fptr[i]; sincePoll >= pollFlops {
				sincePoll = 0
				e.poll()
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
			return maskTest(mInd, mVal, mask.Structural, j, &mk) != mask.Complement
		}
		hashBytes := int64(hashCapacity(maxFlops)) * slot
		in := planIn{hint: hint, work: rangeFlops, width: b.Cols, maskComp: mask.Complement,
			denseFits: e.Tx.Fits(denseBytes), hashSmaller: hashBytes < denseBytes}
		if mask.M != nil {
			in.masked, in.maskNNZ = true, mask.M.Ptr[hi]-mask.M.Ptr[lo]
		}
		rt := planRange(in)
		if rt.Reason.Budget() {
			budgetDegrades.Add(1)
		}
		rt.Family = rowLoop != nil && rt.Acc == AccDense && !rt.MaskFirst
		ran[part] = rt
		if rt.Acc == AccHash {
			hashRanges.Add(1)
			e.mustCharge(siteSpGEMMHash, hashBytes)
			var h hashAccum[C]
			h.ensure(maxFlops)
			for i := lo; i < hi; i++ {
				tick(i)
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
				if mask.M != nil {
					mInd, mVal = mask.M.Row(i)
				}
				mk = 0
				for _, j := range pattern {
					if !masked || admit(j) {
						ind = append(ind, j)
						val = append(val, h.vals[h.slot(j)])
					}
				}
				rowLen[i] = len(ind) - start
				h.reset()
			}
			pInd[part], pVal[part] = ind, val
			return
		}
		denseRanges.Add(1)
		e.mustCharge(spaSite, denseBytes)
		spa := make([]C, b.Cols)
		// Generation marks, two per row. Mask-first: 2i+1 admitted and still
		// empty, 2i+2 admitted and filled. Otherwise: 2i+1 counted by the
		// symbolic pass, 2i+2 holds a value.
		stamp := make([]int, b.Cols)
		scratchBytes.Add(denseBytes)
		if rt.MaskFirst {
			ind = make([]int, 0, in.maskNNZ)
			val = make([]C, 0, in.maskNNZ)
			hits := pattern[:cap(pattern)]
			for i := lo; i < hi; i++ {
				tick(i)
				open, filled := 2*i+1, 2*i+2
				admitted, mval := mask.M.Row(i)
				for t, j := range admitted {
					if mask.Structural || mval[t] {
						stamp[j] = open
					}
				}
				aInd, aVal := a.Row(i)
				for k := range aInd {
					bInd, bVal := b.Row(aInd[k])
					av := aVal[k]
					// B(k,:) in hit-buffer-sized pieces: only positions on a
					// stamped column reach mul and add, in (k, t) order.
					for len(bInd) > 0 {
						m := min(len(bInd), len(hits))
						for _, t := range hits[:stampedHits(hits, bInd[:m], stamp, open)] {
							j := bInd[t]
							if stamp[j] == open {
								stamp[j] = filled
								spa[j] = mul(av, bVal[t])
							} else {
								spa[j] = add(spa[j], mul(av, bVal[t]))
							}
						}
						bInd, bVal = bInd[m:], bVal[m:]
					}
				}
				start := len(ind)
				for _, j := range admitted {
					if stamp[j] == filled {
						ind = append(ind, j)
						val = append(val, spa[j])
					}
				}
				rowLen[i] = len(ind) - start
			}
		} else {
			// Symbolic pass: the range's pattern size — the output's exact
			// size when unmasked, a bound on it under a mask.
			n := 0
			for i := lo; i < hi; i++ {
				tick(i)
				gen := 2*i + 1
				aInd, _ := a.Row(i)
				for _, k := range aInd {
					bInd, _ := b.Row(k)
					for _, j := range bInd {
						if stamp[j] != gen {
							n++
						}
						stamp[j] = gen
					}
				}
			}
			ind = make([]int, 0, n)
			val = make([]C, 0, n)
			// A family loop takes its pattern buffer through an indirect
			// call, so that buffer lives on the heap; keeping it apart lets
			// the closure loop's stay on the stack. It may fold a row's first
			// products into the SPA too, so between rows the SPA holds the
			// additive identity: filled here, restored by the emit.
			var famPattern []int
			ident := spaIdentity[C](semi)
			if rowLoop != nil {
				famPattern = make([]int, 0, 256)
				for j := range spa {
					spa[j] = ident
				}
			}
			for i := lo; i < hi; i++ {
				tick(i)
				gen := 2*i + 2
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
				orderPattern(pattern, stamp, gen)
				start := len(ind)
				if !masked { // its own loop: a closure call in it would spill this one
					for _, j := range pattern {
						ind = append(ind, j)
						val = append(val, spa[j])
						spa[j] = ident
					}
				} else {
					if mask.M != nil {
						mInd, mVal = mask.M.Row(i)
					}
					mk = 0
					for _, j := range pattern {
						if admit(j) {
							ind = append(ind, j)
							val = append(val, spa[j])
						}
						spa[j] = ident
					}
				}
				rowLen[i] = len(ind) - start
			}
		}
		pInd[part], pVal[part] = ind, val
	})
	installStitched(out, pInd, pVal, rowLen)
	return out, nil
}

// orderPattern puts a dense accumulator's insertion pattern — the columns j
// with stamp[j] == live — in ascending order, by sort or by reading the stamps
// in column order as scanEmit decides, for the SpGEMM and push scaffolds both.
func orderPattern[S comparable](pattern []int, stamp []S, live S) {
	if !scanEmit(len(pattern), len(stamp)) {
		sort.Ints(pattern)
		return
	}
	// Slot k takes every candidate column until one carries the stamp.
	for j, k := 0, 0; k < len(pattern); j++ {
		pattern[k] = j
		if stamp[j] == live {
			k++
		}
	}
}

// stampedHits writes to hits, in order, the positions of bInd whose column
// carries a stamp of at least open, and returns how many: the mask-first
// probe. One probe in eight is admitted on a triangle count and no predictor
// learns which — the mispredicted branch, not the stamp read, was the loop's
// cost — so the count advances by a conditional move: every position is
// written, an admitted one is kept. stamp[j] >= open means "stamped for this
// row" because a range walks its rows once in ascending i: what an earlier
// row left is at most 2i, below open = 2i+1. It is a function of its own
// because in the range closure the counter spills to the stack
// (EXPERIMENTS.md, "Branch-free SpGEMM"). len(hits) >= len(bInd).
//
//go:noinline
func stampedHits(hits, bInd, stamp []int, open int) int {
	n := 0
	for t, j := range bInd {
		hits[n] = t
		if stamp[j] >= open {
			n++
		}
	}
	return n
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
func Kron[A, B, C any](a *CSR[A], b *CSR[B], mul func(A, B) C, e Exec) (out *CSR[C], err error) {
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
	parallel.For(rows, e.workers(nnz), func(lo, hi int) {
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
