package sparse

import (
	"math"
	"slices"
	"unsafe"

	"github.com/grblas/grb/internal/parallel"
)

// SpMVSemiEx computes t = A ·(⊕,⊗) u (GraphBLAS mxv): t(i) = ⊕_j A(i,j) ⊗ u(j)
// — the pull-style product with no accumulator (SpMVAccumEx).
func SpMVSemiEx[A, X, Y any](semi Semi, _ Spec, a *CSR[A], u *Vec[X],
	mul func(A, X) Y, add func(Y, Y) Y, mask VMask, e Exec, hint Kernel) (*Vec[Y], error) {
	return SpMVAccumEx(semi, a, u, mul, add, mask, nil, nil, BinGeneric, e, hint)
}

// accumBlock is how many rows the fused pull gathers before folding them into
// z: the block's (ind, val) buffer is 16 KB of float64 and stays in L1.
const accumBlock = 1024

// SpMVAccumEx computes z = c ⊙ t with t = A ·(⊕,⊗) u — the one pull-style
// product; a nil accum (c is then not read) makes it z = t, and accOp tags
// accum for the family loops. Rows of A are traversed in nnz-balanced
// parallel ranges and each row gathers its matching entries of u through one
// of two structures (planPull):
//
//   - dense: u's DenseVec view (value slots plus, unless u is full, a
//     presence bitmap), O(1) lookups — right whenever the rows to gather
//     hold a sizable fraction of n entries, however sparse u is. The view is
//     memoized on the vector; a miss is charged to the operation like any
//     other scratch, and a full u is its own view.
//   - hash: a read-only open-addressing table of O(nnz(u)) slots shared by
//     all workers — right when building and probing it (gatherWork) is less
//     than the O(n) view: a hypersparse matrix, or a sparse non-complemented
//     mask admitting few rows; and the fallback when the budget refuses the
//     view.
//
// The row loop is the plug-in point: a family loop from monokernels.go runs
// over the dense view when one exists for (semi, A, X, Y); otherwise — and
// always for the hash gather — the closure loop evaluates mul/add. Either
// appends the (row, value) pairs of its rows to the buffers the scaffold
// hands it, and what the scaffold hands it is the other axis:
//
//   - t is stored: a range is one block filling one buffer, stitchVec
//     assembles the ranges, and AccumMergeV folds t into c when there is an
//     accumulator;
//   - t is never stored: with an accumulator, no mask and a full c, a range
//     gathers accumBlock rows at a time into a buffer that stays in cache and
//     writes z(i) = accum(c(i), t(i)) into a copy of c's values that shares
//     c's index array — one pass, and the n-length (ind, val) of t and the
//     merge's output are never allocated. Rows are independent, so both
//     forms give the same bits at every thread count.
//
// An optional mask prunes whole rows before any work is done on them — the
// key optimization for masked pull-style traversals (e.g. BFS with a
// complemented visited mask). The mask is compiled once by vmaskLookup, so
// the per-row admission test is O(1) rather than a binary search.
//
// Budget charges, cancellation checkpoints at range granularity and panic
// recovery are as in SpGEMMSemiEx.
func SpMVAccumEx[A, X, Y any](semi Semi, a *CSR[A], u *Vec[X], mul func(A, X) Y, add func(Y, Y) Y,
	mask VMask, c *Vec[Y], accum func(Y, Y) Y, accOp Bin, e Exec, hint Kernel) (out *Vec[Y], err error) {
	defer recoverExec(&err)
	pullCalls.Add(1)
	rows := familyLoop[func(*CSR[A], []X, []bool, func(int) bool, []int, []Y, int, int) ([]int, []Y)](spmvLoops[:], semi)
	viewBytes := u.viewBytes()
	viewCost := viewBytes // what the dense gather has yet to charge
	if u.dv.Load() != nil {
		viewCost = 0
	}
	hashBytes := lookupBytes(u)
	// The planner only asks whether the work reaches u.N/hashCut; its lookups
	// size the fork, so where there are threads to share them all are counted.
	cut := u.N / hashCut
	if e.Threads > 1 {
		cut = math.MaxInt
	}
	in := planIn{hint: hint, hasLoop: rows != nil, width: u.N, outDim: a.Rows,
		work:      gatherWork(a.Ptr, u.NNZ(), mask, cut),
		denseFits: e.Tx.Fits(viewCost), hashSmaller: hashBytes < viewBytes}
	threads := e.workers(in.work - u.NNZ())
	if mask.M != nil {
		in.maskHashSmaller, in.bitmapFits = maskProbe(e, mask, a.Rows, viewCost)
	}
	rt := planPull(in)
	e.note(rt)
	if rt.Reason.Budget() {
		budgetDegrades.Add(1)
	}
	if rt.Family {
		monoKernels.Add(1)
	} else {
		closureFallbacks.Add(1)
	}
	var h *hashLookup[X] // the hash gather, or
	var dval []X         // the dense one: u's view slots and,
	var dbit []bool      // unless u is full, its presence bitmap
	if rt.Acc == AccHash {
		hashRanges.Add(1)
		e.mustCharge(siteSpMVHash, hashBytes)
		h = newHashLookup(u)
	} else {
		denseRanges.Add(1)
		dv, derr := u.DenseViewEx(e)
		if derr != nil {
			return nil, derr
		}
		dval, dbit = dv.Val, dv.Bit
	}
	admit := vmaskLookup(mask, a.Rows, rt.HashMask, e, siteSpMVGather)
	// The hash gather exists to stay frontier-sized, so only the dense gather
	// (which already paid O(n) for its view) presizes its output: at most one
	// entry per row the mask admits.
	admits := 0
	switch {
	case h != nil, mask.M == nil && mask.Complement: // the latter admits nothing
	case mask.M == nil:
		admits = a.Rows
	default:
		admits, _ = vmaskBounds(mask, a.Rows)
	}
	parts := parallel.BalancedRanges(a.Rows, threads, a.Ptr)
	var z []Y      // c ⊙ t, written in place of
	var t []run[Y] // a stored t, one run per range
	if accum != nil && admit == nil && c.NNZ() == c.N {
		z = slices.Clone(c.Val)
	} else {
		t = make([]run[Y], len(parts)-1)
	}
	family := rt.Family // the closure below captures a bool, not the Route
	parallel.Run(parts, threads, func(part, lo, hi int) {
		if family {
			if ferr := siteMonoLoop.Check(); ferr != nil {
				abort(ferr)
			}
		}
		e.checkpoint()
		block := hi - lo // a stored t: the range is one block, its buffer the output
		if z != nil {
			block = accumBlock
		}
		ind, val := rowBufs[Y](a.Ptr, admits, lo, min(lo+block, hi))
		for b := lo; b < hi; b += block {
			bhi := min(b+block, hi)
			if family {
				ind, val = rows(a, dval, dbit, admit, ind, val, b, bhi)
			} else {
				ind, val = pullRows(a, h, dval, dbit, admit, mul, add, ind, val, b, bhi)
			}
			if z != nil {
				ewFunc(ewFamily[Y, Y, Y](accOp), accOp, accum, ewScatterX, z, z, val, ind)
				ind, val = ind[:0], val[:0]
			}
		}
		if z == nil {
			t[part] = run[Y]{ind, val}
		}
	})
	if z != nil {
		return &Vec[Y]{N: c.N, Ind: c.Ind, Val: z}, nil
	}
	return AccumMergeV(c, stitchVec(a.Rows, t), accum), nil
}

// pullRows is the pull product's closure loop, in the family loops' shape
// (monokernels.go): it gathers rows [lo, hi) through the hash table h or, when
// h is nil, the dense view (dval, dbit), and appends the emitted (row, value)
// pairs to (ind, val).
func pullRows[A, X, Y any](a *CSR[A], h *hashLookup[X], dval []X, dbit []bool, admit func(int) bool,
	mul func(A, X) Y, add func(Y, Y) Y, ind []int, val []Y, lo, hi int) ([]int, []Y) {
	for i := lo; i < hi; i++ {
		if admit != nil && !admit(i) {
			continue
		}
		aInd, aVal := a.Row(i)
		var acc Y
		any := false
		for k, j := range aInd {
			var x X
			if h != nil {
				var ok bool
				if x, ok = h.get(j); !ok {
					continue
				}
			} else if dbit != nil && !dbit[j] {
				continue
			} else {
				x = dval[j]
			}
			p := mul(aVal[k], x)
			if !any {
				acc = p
				any = true
			} else {
				acc = add(acc, p)
			}
		}
		if any {
			ind = append(ind, i)
			val = append(val, acc)
		}
	}
	return ind, val
}

// gatherWork is planPull's work: what the hash gather would be asked to do —
// one insert per entry of u to build the table, then one probe per stored
// entry of every row the mask admits. That is all of G under no mask or a
// complemented one, and Σ_{i∈m} nnz(G(i,:)) for a mask that lists its rows:
// an upper bound when a valued mask stores falses.
func gatherWork(ptr []int, nnzU int, mask VMask, cut int) int {
	if mask.M == nil || mask.Complement {
		return nnzU + ptr[len(ptr)-1]
	}
	return listedWork(ptr, mask.M.Ind, nnzU, cut)
}

// listedWork is base + Σ_{i∈rows} nnz(row i), read off the row pointers in
// O(len(rows)). Counting stops at cut, below which a planner takes the hash
// structure.
func listedWork(ptr, rows []int, base, cut int) int {
	work := base
	for _, i := range rows {
		if work >= cut {
			break
		}
		work += ptr[i+1] - ptr[i]
	}
	return work
}

// rowBufs returns the (index, value) output buffers of a loop that emits at
// most one entry per non-empty admitted row of [lo, hi), ptr being the
// matrix's row pointers (nil: every row is non-empty) and admits a bound on
// the rows admitted in all: they are sized to min(rows, stored entries) of
// the range and admits — so a hypersparse matrix or a sliver of a mask stays
// small — and the loop never grows them; admits 0 starts them empty.
func rowBufs[T any](ptr []int, admits, lo, hi int) ([]int, []T) {
	n := min(hi-lo, admits)
	if ptr != nil {
		n = min(n, ptr[hi]-ptr[lo])
	}
	return make([]int, 0, n), make([]T, 0, n)
}

// stitchVec assembles per-partition runs — each in ascending index order,
// partitions in ascending range order — into one vector. A single partition
// (one thread, and every small operand) is adopted as is; several are
// concatenated into one exactly-sized allocation.
func stitchVec[T any](n int, parts []run[T]) *Vec[T] {
	if len(parts) == 1 {
		return &Vec[T]{N: n, Ind: parts[0].ind, Val: parts[0].val}
	}
	total := 0
	for _, p := range parts {
		total += len(p.ind)
	}
	out := &Vec[T]{N: n, Ind: make([]int, 0, total), Val: make([]T, 0, total)}
	for _, p := range parts {
		out.Ind, out.Val = appendRun(out.Ind, out.Val, p)
	}
	return out
}

// VxMSemiEx computes t = u ·(⊕,⊗) A (GraphBLAS vxm): t(j) = ⊕_i u(i) ⊗ A(i,j)
// — the one push-style product. The stored entries of u are partitioned
// across workers, each scatters its contributions into a private SPA of
// width A.Cols, and the per-worker SPAs are then reduced with add
// (reduceSpas). For a sparse frontier u this touches only the rows of A
// selected by u.
//
// The mask test happens inside the scatter loop, not at emit time: products
// the mask rules out are never multiplied, never scattered and never reduced.
// With a complemented visited mask (BFS) the pruned fraction grows every
// level, which is where the push direction earns its keep.
//
// The scatter loop is the plug-in point (planPush): a family loop from
// monokernels.go indexes the mask as a bitmap and runs direct arithmetic;
// the closure loop evaluates mul/add behind vmaskLookup's O(1) predicate,
// which is a hash table when building and probing one — nnz(m) inserts + one
// probe per product of the frontier (listedWork) — is less than the bitmap.
//
// The per-worker SPA allocations are charged against the budget. The push
// SPA has no sparse fallback of its own, so degradation under pressure is
// thread halving (fewer concurrently-live SPAs); when even one SPA cannot be
// charged the kernel aborts with ErrBudget — the grb layer then flips an
// unpinned product to the pull kernel.
func VxMSemiEx[X, A, Y any](semi Semi, _ Spec, u *Vec[X], a *CSR[A],
	mul func(X, A) Y, add func(Y, Y) Y, mask VMask, e Exec) (out *Vec[Y], err error) {
	defer recoverExec(&err)
	pushCalls.Add(1)
	scatter := familyLoop[func(*Vec[X], *CSR[A], []bool, []Y, []bool, []int, int, int) []int](vxmLoops[:], semi)
	nu := u.NNZ()
	// The frontier's products size the fork (each worker pays an a.Cols-wide
	// SPA before its first one) and the patterns.
	products := listedWork(a.Ptr, u.Ind, 0, math.MaxInt)
	var zero Y
	spaBytes := int64(a.Cols) * int64(unsafe.Sizeof(zero)+1)
	threads := degradeThreads(e, e.workers(products), spaBytes)
	in := planIn{hasLoop: scatter != nil, outDim: a.Cols}
	if mask.M != nil {
		in.work = listedWork(a.Ptr, u.Ind, mask.M.NNZ(), a.Cols/hashCut)
		in.maskHashSmaller, in.bitmapFits = maskProbe(e, mask, a.Cols, int64(threads)*spaBytes)
	}
	rt := planPush(in)
	e.note(rt)
	if rt.Reason.Budget() {
		budgetDegrades.Add(1)
	}
	spaSite := siteVxMSpa
	if rt.Family {
		monoKernels.Add(1)
		spaSite = siteMonoSpa
	} else {
		closureFallbacks.Add(1)
	}
	if mask.M == nil && mask.Complement {
		// Complemented nil mask admits nothing; MaskApplyV discards every
		// candidate entry, so the scatter would be pure waste.
		return NewVec[Y](a.Cols), nil
	}
	parts := parallel.Ranges(nu, threads)
	nparts := len(parts) - 1
	if nparts == 0 {
		return NewVec[Y](a.Cols), nil
	}
	var bits []bool          // the family loops' mask form
	var admit func(int) bool // the closure loop's
	if !rt.Family {
		admit = vmaskLookup(mask, a.Cols, rt.HashMask, e, spaSite)
	} else if mask.M != nil {
		bits = vmaskBitmap(mask, a.Cols, e, spaSite)
	}
	spas := make([][]Y, nparts)
	marks := make([][]bool, nparts)
	patterns := make([][]int, nparts)
	family := rt.Family
	parallel.Run(parts, threads, func(part, lo, hi int) {
		if family {
			if ferr := siteMonoLoop.Check(); ferr != nil {
				abort(ferr)
			}
		}
		e.checkpoint()
		e.mustCharge(spaSite, spaBytes)
		spa := make([]Y, a.Cols)
		mark := make([]bool, a.Cols)
		scratchBytes.Add(spaBytes)
		spas[part] = spa
		marks[part] = mark
		// A range emits at most one pattern entry per product and per column.
		pattern := make([]int, 0, min(products, a.Cols))
		if family {
			patterns[part] = scatter(u, a, bits, spa, mark, pattern, lo, hi)
			return
		}
		for k := lo; k < hi; k++ {
			i := u.Ind[k]
			uv := u.Val[k]
			aInd, aVal := a.Row(i)
			for t := range aInd {
				j := aInd[t]
				if admit != nil && !admit(j) {
					continue
				}
				p := mul(uv, aVal[t])
				if !mark[j] {
					mark[j] = true
					spa[j] = p
					pattern = append(pattern, j)
				} else {
					spa[j] = add(spa[j], p)
				}
			}
		}
		patterns[part] = pattern
	})
	return reduceSpas(a.Cols, spas, marks, patterns, add), nil
}

// reduceSpas combines the push kernel's per-worker scatter SPAs into one
// sorted vector, by one of two reductions that fold partitions in the same
// ascending order and so produce identical outputs:
//
//   - dense (total emitted pattern at least cols/hashCut): output columns are
//     range-partitioned across workers and each worker folds all SPAs over
//     its own range, emitting in column order directly — the reduction
//     parallelizes instead of serializing behind worker 0.
//   - sparse: the classic sequential pattern merge into worker 0's SPA,
//     which is cheap precisely because the patterns are small.
func reduceSpas[Y any](cols int, spas [][]Y, marks [][]bool, patterns [][]int, add func(Y, Y) Y) *Vec[Y] {
	nparts := len(spas)
	totalPat := 0
	for _, p := range patterns {
		totalPat += len(p)
	}
	out := &Vec[Y]{N: cols}
	if totalPat == 0 {
		return out
	}
	if nparts > 1 && !belowCut(totalPat, cols) {
		// Dense reduction: each worker owns a contiguous column range and
		// folds every partition's SPA over it, in ascending partition order
		// (the same fold order as the sequential merge below). Emission is
		// in column order by construction, so no final sort is needed.
		rparts := parallel.Ranges(cols, nparts)
		ranges := make([]run[Y], len(rparts)-1)
		parallel.Run(rparts, nparts, func(part, lo, hi int) {
			n := min(hi-lo, totalPat)
			ind, val := make([]int, 0, n), make([]Y, 0, n)
			for j := lo; j < hi; j++ {
				var acc Y
				any := false
				for p := 0; p < nparts; p++ {
					if marks[p] == nil || !marks[p][j] {
						continue
					}
					if !any {
						acc = spas[p][j]
						any = true
					} else {
						acc = add(acc, spas[p][j])
					}
				}
				if any {
					ind = append(ind, j)
					val = append(val, acc)
				}
			}
			ranges[part] = run[Y]{ind, val}
		})
		return stitchVec(cols, ranges)
	}
	// Sparse reduction: merge worker SPAs into worker 0's.
	spa0, mark0, pat0 := spas[0], marks[0], patterns[0]
	for p := 1; p < nparts; p++ {
		for _, j := range patterns[p] {
			if !mark0[j] {
				mark0[j] = true
				spa0[j] = spas[p][j]
				pat0 = append(pat0, j)
			} else {
				spa0[j] = add(spa0[j], spas[p][j])
			}
		}
	}
	// The merged pattern is this call's own scratch: in column order, it is
	// the output's index array.
	orderPattern(pat0, mark0, true)
	out.Ind = pat0
	out.Val = make([]Y, len(pat0))
	for k, j := range pat0 {
		out.Val[k] = spa0[j]
	}
	return out
}
