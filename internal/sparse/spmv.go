package sparse

import (
	"math"
	"slices"
	"unsafe"

	"github.com/grblas/grb/internal/obsv"
	"github.com/grblas/grb/internal/parallel"
)

// SpMVSemiEx computes t = A ·(⊕,⊗) u (GraphBLAS mxv): t(i) = ⊕_j A(i,j) ⊗ u(j)
// — the pull-style product with no accumulator (SpMVAccumEx).
func SpMVSemiEx[A, X, Y any](semi Semi, _ Spec, a *CSR[A], u *Vec[X],
	mul func(A, X) Y, add func(Y, Y) Y, mask VMask, e Exec, hint Kernel) (*Vec[Y], error) {
	return SpMVAccumEx(semi, a, u, mul, add, mask, nil, nil, BinGeneric, e, hint)
}

// accumBlock is how many rows the fused pull gathers before folding them into
// z: the block's (ind, val) buffer is 4 KB of float64, allocated every call,
// and stays in L1 (EXPERIMENTS.md, "Copy-outs and the block buffer
// allocated once").
const accumBlock = 256

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
//   - t is never stored: with an accumulator, no mask and a full c, a range
//     gathers accumBlock rows at a time into a buffer that stays in cache and
//     writes z(i) = accum(c(i), t(i)) into a full output, a copy of c's
//     values — or c's values themselves when the step granted them
//     (reuseVal) — one pass, and the n-length (ind, val) of t and the
//     merge's output are never allocated;
//   - t is a bitmap where the sorted form, presized to the rows the mask
//     admits, is no smaller than the bitmap and its ranges' block buffers:
//     the ranges write their blocks into one Val/Bit;
//   - t is sorted otherwise: a range is one block filling one buffer, and
//     stitchVec assembles the ranges.
//
// AccumMergeV folds a stored t into c when there is an accumulator. Rows are
// independent, so every form gives the same bits at every thread count.
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
	obsv.PullCalls.Add(1)
	rows := familyLoop[func(*CSR[A], []X, []bool, func(int) bool, []int, []Y, int, int) ([]int, []Y)](spmvLoops[:], semi)
	viewBytes := u.viewBytes()
	viewCost := viewBytes // what the dense gather has yet to charge
	if u.view.Load() != nil {
		viewCost = 0
	}
	hashBytes := lookupBytes(u)
	// The planner only asks whether the work reaches u.N/hashCut; its lookups
	// size the fork, so where there are threads to share them all are counted.
	cut := u.N / hashCut
	if e.Threads > 1 {
		cut = math.MaxInt
	}
	in := planIn{hint: hint, hasLoop: rows != nil, width: u.N,
		work:      gatherWork(a.Ptr, u.NNZ(), mask, cut),
		denseFits: e.Tx.Fits(viewCost), hashSmaller: hashBytes < viewBytes}
	threads := e.workers(in.work - u.NNZ())
	if mask.M != nil && !mask.M.indexed() { // an indexed mask the pull reads for nothing
		in.maskHashSmaller, in.bitmapFits = maskProbe(e, mask, a.Rows, viewCost)
	}
	rt := planPull(in)
	e.note(rt)
	if rt.Reason.Budget() {
		obsv.BudgetDegrades.Add(1)
	}
	if rt.Family {
		obsv.MonoKernels.Add(1)
	} else {
		obsv.ClosureFallbacks.Add(1)
	}
	var h *hashLookup[X] // the hash gather, or
	var dval []X         // the dense one: u's view slots and,
	var dbit []bool      // unless u is full, its presence bitmap
	if rt.Acc == AccHash {
		obsv.HashRanges.Add(1)
		e.mustCharge(siteSpMVHash, hashBytes)
		h = newHashLookup(u)
	} else {
		obsv.DenseRanges.Add(1)
		dv, derr := u.DenseViewEx(e)
		if derr != nil {
			return nil, derr
		}
		dval, dbit = dv.Val, dv.Bit
	}
	admit := vmaskLookup(mask, a.Rows, rt.HashMask, e, siteSpMVGather)
	// The hash gather exists to stay frontier-sized, so only the dense gather
	// (which already paid O(n) for its view) presizes a sorted output: at most
	// one entry per row the mask admits.
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
	var bm *Vec[Y] // a stored t: a bitmap, or
	var t []run[Y] // one sorted run per range
	var zero Y
	width := int(unsafe.Sizeof(zero))
	sorted := min(admits, a.NNZ())                       // the entries a sorted t is presized to
	blocks := (len(parts) - 1) * min(accumBlock, sorted) // a bitmap t's block buffers
	switch {
	case accum != nil && admit == nil && c.NNZ() == c.N:
		z = reuseVal(e, c.N, c.Val)
	case (sorted-blocks)*(8+width) >= a.Rows*(1+width) && a.Rows <= maxBitmap:
		bm = &Vec[Y]{N: a.Rows, Val: make([]Y, a.Rows), Bit: make([]bool, a.Rows)}
	default:
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
		block := hi - lo // a sorted t: the range is one block, its buffer the output
		if t == nil {
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
			if t != nil {
				continue
			}
			if z != nil {
				ewFunc(ewFamily[Y, Y, Y](accOp), accOp, accum, ewScatterX, z, z, val, ind)
			} else {
				for k, i := range ind {
					bm.Val[i], bm.Bit[i] = val[k], true
				}
			}
			ind, val = ind[:0], val[:0]
		}
		if t != nil {
			t[part] = run[Y]{ind, val}
		}
	})
	switch {
	case z != nil:
		return &Vec[Y]{N: c.N, Val: z}, nil
	case bm != nil:
		bm.nb = uint32(popcount(bm.Bit))
		return AccumMergeV(c, installSettled(bm), accum), nil
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
	return listedEntries(ptr, mask.M, nnzU, cut)
}

// listedEntries is listedWork over the positions v stores, in any form,
// walked only until the count reaches cut.
func listedEntries[T any](ptr []int, v *Vec[T], base, cut int) int {
	scan(v, func(i int, _ T) bool {
		if base >= cut {
			return false
		}
		base += ptr[i+1] - ptr[i]
		return true
	})
	return base
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
// matrix's row pointers and admits a bound on the rows admitted in all: they
// are sized to min(rows, stored entries) of the range and admits — so a
// hypersparse matrix or a sliver of a mask stays small — and the loop never
// grows them; admits 0 starts them empty.
func rowBufs[T any](ptr []int, admits, lo, hi int) ([]int, []T) {
	return makeRun[T](min(hi-lo, admits, ptr[hi]-ptr[lo]))
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
// — the one push-style product: it reads only the rows of A that u's stored
// entries select, and accumulates their products in one of two structures
// (planPush):
//
//   - dense: each worker owns a range of output columns, reads each frontier
//     row's slice of it (a binary search, none when it owns them all) and
//     scatters into its slice of one A.Cols-wide SPA and mark. Where the
//     marked columns reach A.Cols/bitmapCut the SPA and mark are the
//     result, a bitmap; below that the marks, read a word at a time, are
//     emitted into one exactly sized Ind/Val.
//   - hash: hashspa.go's table, sized from the products and filled by one
//     worker — for products below A.Cols/hashCut in fewer bytes than the
//     SPA, or where the budget refuses the SPA and the table is smaller.
//
// Each column folds its products in frontier order, so the push gives the
// pull's bits at every thread count, on any semiring.
//
// The mask is tested inside the scatter loop: products it rules out are
// never multiplied or scattered, which is where a BFS push earns its keep.
// A family loop from monokernels.go serves the SPA and reads the mask as a
// bitmap; the closure loop — the table's always — reads vmaskLookup's
// predicate, a hash table where building and probing one (nnz(m) inserts +
// a probe a product) is less work than the bitmap.
//
// Both structures are charged to the budget; one that cannot be is
// ErrBudget, on which the grb layer flips an unpinned product to the pull.
func VxMSemiEx[X, A, Y any](semi Semi, _ Spec, u *Vec[X], a *CSR[A],
	mul func(X, A) Y, add func(Y, Y) Y, mask VMask, e Exec) (*Vec[Y], error) {
	return vxmSemi(semi, u, a, mul, add, mask, e, KernelAuto)
}

// vxmSemi is VxMSemiEx with the accumulator pin the tests hold the two
// structures to the same bits through.
func vxmSemi[X, A, Y any](semi Semi, u *Vec[X], a *CSR[A],
	mul func(X, A) Y, add func(Y, Y) Y, mask VMask, e Exec, hint Kernel) (out *Vec[Y], err error) {
	defer recoverExec(&err)
	if u, err = u.sortedEx(e); err != nil {
		return nil, err
	}
	obsv.PushCalls.Add(1)
	scatter := familyLoop[func(*Vec[X], *CSR[A], []bool, bool, []Y, []bool, int, int)](vxmLoops[:], semi)
	products := listedWork(a.Ptr, u.Ind, 0, math.MaxInt)
	var zero Y
	spaBytes := int64(a.Cols) * int64(unsafe.Sizeof(zero)+1) // a value and a mark per column
	hashBytes := int64(hashCapacity(products)) * slotBytes[Y]()
	in := planIn{hint: hint, hasLoop: scatter != nil, work: products, width: a.Cols,
		denseFits: e.Tx.Fits(spaBytes), hashSmaller: hashBytes < spaBytes}
	rt := planPush(in)
	if mask.M != nil {
		// The mask rows weigh the bitmap beside the accumulator just picked.
		beside := spaBytes
		if rt.Acc == AccHash {
			beside = hashBytes
		}
		in.maskNNZ = mask.M.NNZ()
		in.maskHashSmaller, in.bitmapFits = maskProbe(e, mask, a.Cols, beside)
		rt = planPush(in)
	}
	e.note(rt)
	if rt.Reason.Budget() {
		obsv.BudgetDegrades.Add(1)
	}
	spaSite := siteVxMSpa
	if rt.Family {
		obsv.MonoKernels.Add(1)
		spaSite = siteMonoSpa
	} else {
		obsv.ClosureFallbacks.Add(1)
	}
	work := products
	if rt.Acc == AccHash {
		work = 0 // one worker fills the table
	}
	threads := e.workers(work)
	if products == 0 || mask.M == nil && mask.Complement {
		// Nothing to scatter, or a complemented nil mask, which admits
		// nothing.
		return NewVec[Y](a.Cols), nil
	}
	var maskBits []bool      // the family loops' mask form,
	var flip bool            // column j admitted where maskBits[j] != flip
	var admit func(int) bool // the closure loop's
	if !rt.Family {
		admit = vmaskLookup(mask, a.Cols, rt.HashMask, e, spaSite)
	} else if mask.M != nil {
		maskBits, flip = vmaskBitmap(mask, a.Cols, e, spaSite)
	}
	if rt.Acc == AccHash {
		e.checkpoint()
		e.mustCharge(siteVxMSpa, hashBytes)
		return pushHash(u, a, admit, mul, add, products), nil
	}
	parts := parallel.Ranges(a.Cols, threads)
	e.mustCharge(spaSite, spaBytes)
	spa, mark := make([]Y, a.Cols), make([]bool, a.Cols)
	obsv.ScratchBytes.Add(spaBytes)
	family := rt.Family
	parallel.Run(parts, threads, func(part, lo, hi int) {
		if family {
			if ferr := siteMonoLoop.Check(); ferr != nil {
				abort(ferr)
			}
		}
		e.checkpoint()
		if family {
			var own []bool
			if maskBits != nil {
				own = maskBits[lo:hi]
			}
			scatter(u, a, own, flip, spa[lo:hi], mark[lo:hi], lo, hi)
		} else {
			pushRows(u, a, admit, mul, add, spa[lo:hi], mark[lo:hi], lo, hi)
		}
	})
	t := &Vec[Y]{N: a.Cols, Val: spa, Bit: mark, nb: uint32(popcount(mark))}
	if int(t.nb)*bitmapCut >= a.Cols && a.Cols <= maxBitmap { // the SPA is the result
		return installSettled(t), nil
	}
	ind, val := t.VecTuples(nil, nil)
	return &Vec[Y]{N: a.Cols, Ind: ind, Val: val}, nil
}

// pushRows is the push product's closure loop, in the family loops' shape
// (monokernels.go), except that admit takes the column itself.
func pushRows[X, A, Y any](u *Vec[X], a *CSR[A], admit func(int) bool, mul func(X, A) Y, add func(Y, Y) Y,
	spa []Y, mark []bool, lo, hi int) {
	for k, i := range u.Ind {
		uv := u.Val[k]
		aInd, aVal := a.rowIn(i, lo, hi)
		for t, j := range aInd {
			if admit != nil && !admit(j) {
				continue
			}
			p := mul(uv, aVal[t])
			if j -= lo; !mark[j] {
				mark[j] = true
				spa[j] = p
			} else {
				spa[j] = add(spa[j], p)
			}
		}
	}
}

// pushHash is the push product over a hash table sized for its products:
// the closure loop's fold into hashAccum's slots, then the columns it
// reached, in the order it reached them, sorted with their values.
func pushHash[X, A, Y any](u *Vec[X], a *CSR[A], admit func(int) bool, mul func(X, A) Y, add func(Y, Y) Y,
	products int) *Vec[Y] {
	var h hashAccum[Y]
	h.ensure(products)
	ind := make([]int, 0, min(products, a.Cols))
	for k, i := range u.Ind {
		uv := u.Val[k]
		aInd, aVal := a.Row(i)
		for t, j := range aInd {
			if admit != nil && !admit(j) {
				continue
			}
			p := mul(uv, aVal[t])
			if s := h.slot(j); h.keys[s] == -1 {
				h.keys[s] = j
				h.vals[s] = p
				ind = append(ind, j)
			} else {
				h.vals[s] = add(h.vals[s], p)
			}
		}
	}
	out := &Vec[Y]{N: a.Cols, Ind: ind[:len(ind):len(ind)], Val: make([]Y, len(ind))}
	for k, j := range ind {
		out.Val[k] = h.vals[h.slot(j)]
	}
	if !slices.IsSorted(ind) { // as one frontier row leaves them
		radixSort(out.Ind, out.Val, h.keys, h.vals, a.Cols) // the spent table is the buffer
	}
	return out
}

// radixSort sorts the pairs (ind, val) by index, every index below width, a
// byte a pass from the lowest, through buffers ib and vb at least as long:
// each pass moves every pair twice, where pdqsort compares it log₂ n times.
func radixSort[Y any](ind []int, val []Y, ib []int, vb []Y, width int) {
	src, sv, dst, dv := ind, val, ib[:len(ind)], vb[:len(ind)]
	for shift := 0; (width-1)>>shift > 0; shift += 8 {
		var start [257]int
		for _, j := range src {
			start[(j>>shift)&255+1]++
		}
		for d := 1; d < 257; d++ {
			start[d] += start[d-1]
		}
		for k, j := range src {
			d := (j >> shift) & 255
			dst[start[d]], dv[start[d]] = j, sv[k]
			start[d]++
		}
		src, sv, dst, dv = dst, dv, src, sv
	}
	copy(ind, src) // onto itself after an even number of passes
	copy(val, sv)
}
