package sparse

import (
	"sort"
	"unsafe"

	"github.com/grblas/grb/internal/parallel"
)

// SUMMA-style block plans over BlockedCSR operands. A blocked multiply is a
// task DAG projected onto a flat task list: output tile (bi, bj) is one task
// that folds A[bi][bk] · B[bk][bj] over bk in ascending order into a private
// per-tile accumulator, and the tasks are executed by parallel.Tasks with
// work stealing — the 2D decomposition splits a skewed row's flops across a
// whole grid row of tasks, which is exactly the parallelism the flat
// row-partitioned kernel cannot extract.
//
// Equivalence discipline (the blocked differential battery compares with ==):
// for every output position the products arrive in the same global order as
// the flat Gustavson kernel — bk ascending × within-tile k ascending is
// global k ascending, and the per-row SPA generation persists across bk — so
// the first-assign-then-add chains are identical, term for term. The push
// (VxM) plan additionally replicates the flat kernel's frontier partition
// boundaries and folds partial SPAs in the same partition-ascending order as
// reduceSpas, so even float rounding matches.

// tileRowLoop is the per-(row, tile-pair) product loop of a blocked SpGEMM
// task: scatter local row i of the A-tile through the B-tile into the task's
// (spa, stamp) accumulator with generation gen, appending newly-seen local
// columns to pattern. Its shape is exactly spgemmRowLoop so the monomorphized
// family loops slot in unchanged.
type tileRowLoop[A, B, C any] func(a *CSR[A], b *CSR[B], spa []C, stamp []int, gen int, pattern []int, i int) []int

// closureTileRows is the generic tile product: the closure kernel's dense
// branch over one (A-tile row, B-tile) pair.
func closureTileRows[A, B, C any](mul func(A, B) C, add func(C, C) C) tileRowLoop[A, B, C] {
	return func(a *CSR[A], b *CSR[B], spa []C, stamp []int, gen int, pattern []int, i int) []int {
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
		return pattern
	}
}

// blockedRowLoop picks the tile product: the matching monomorphized family
// loop when the semiring tag, the spec pin and the operand types admit one
// (the call then counts as mono, same as the flat dispatch), the closure
// loop otherwise. A pinned hash accumulator skips the mono loop — hash tasks
// run closures either way, as in the flat kernel.
func blockedRowLoop[A, B, C any](semi Semi, spec Spec, hint Kernel,
	mul func(A, B) C, add func(C, C) C) tileRowLoop[A, B, C] {
	if monoEnabled(semi, spec) && hint != KernelHash {
		if loop, ok := monoTileRows[A, B, C](semi); ok {
			monoKernels.Add(1)
			return loop
		}
	}
	return closureTileRows(mul, add)
}

// monoTileRows narrows onto a hot-type family loop: a tileRowLoop[T, T, T]
// type-asserts to tileRowLoop[A, B, C] exactly when all three domains are T.
func monoTileRows[A, B, C any](semi Semi) (tileRowLoop[A, B, C], bool) {
	try := func(l any) (tileRowLoop[A, B, C], bool) {
		loop, ok := l.(tileRowLoop[A, B, C])
		return loop, ok
	}
	switch semi {
	case SemiPlusTimes:
		if l, ok := try(tileRowLoop[int64, int64, int64](spgemmRowPlusTimes[int64])); ok {
			return l, true
		}
		if l, ok := try(tileRowLoop[float64, float64, float64](spgemmRowPlusTimes[float64])); ok {
			return l, true
		}
	case SemiMinPlus:
		if l, ok := try(tileRowLoop[int64, int64, int64](spgemmRowMinPlus[int64])); ok {
			return l, true
		}
		if l, ok := try(tileRowLoop[float64, float64, float64](spgemmRowMinPlus[float64])); ok {
			return l, true
		}
	case SemiLorLand:
		if l, ok := try(tileRowLoop[bool, bool, bool](spgemmRowLorLand)); ok {
			return l, true
		}
	case SemiPlusPair:
		if l, ok := try(tileRowLoop[int64, int64, int64](spgemmRowPlusPair[int64])); ok {
			return l, true
		}
		if l, ok := try(tileRowLoop[float64, float64, float64](spgemmRowPlusPair[float64])); ok {
			return l, true
		}
	case SemiGeneric:
	}
	return nil, false
}

// blockedSpGEMMDispatch routes a matrix product through the blocked engine
// when the mode asks for it. handled == false means "stay flat" (mode off,
// thresholds unmet, or a counted fallback). In BlockForce mode errors are
// the caller's — the route was pinned, like a pinned accumulator — while
// BlockAuto degrades to the flat kernel.
func blockedSpGEMMDispatch[A, B, C any](semi Semi, spec Spec, a *CSR[A], b *CSR[B],
	mul func(A, B) C, add func(C, C) C, mask Mask, e Exec, hint Kernel) (out *CSR[C], handled bool, err error) {
	mode := e.blockMode()
	switch mode {
	case BlockFlat:
		return nil, false, nil
	case BlockAuto:
		if e.threads() <= 1 || hint == KernelHash {
			return nil, false, nil
		}
		if !shouldBlock(a.Rows, a.Cols, a.NNZ()) || !shouldBlock(b.Rows, b.Cols, b.NNZ()) {
			return nil, false, nil
		}
	case BlockForce:
	}
	defer func() {
		// A panic during view materialization or planning means the blocked
		// engine engaged: park the recovered error rather than retrying the
		// flat kernel over a half-consumed fault.
		if r := recover(); r != nil {
			err = panicToError(r)
			handled = true
		}
	}()
	gr, gc := autoGrid()
	ab, aerr := a.BlockedViewEx(e, gr, gc)
	var bb *BlockedCSR[B]
	berr := aerr
	if aerr == nil {
		// B's row split must equal A's column split for the bk fold to line
		// up, so B is cut gc×gc regardless of the requested row grid.
		bb, berr = b.BlockedViewEx(e, gc, gc)
	}
	if berr != nil {
		if mode == BlockForce {
			return nil, true, berr
		}
		blockedFallbacks.Add(1)
		return nil, false, nil
	}
	if !sameSplit(ab.ColSplit, bb.RowSplit) {
		// Dimension-clamped grids diverged (degenerate shapes); the flat
		// kernel handles those fine.
		blockedFallbacks.Add(1)
		return nil, false, nil
	}
	prod := blockedRowLoop[A, B, C](semi, spec, hint, mul, add)
	out, err = blockedSpGEMM(ab, bb, mul, add, mask, e, hint, prod)
	return out, true, err
}

// blockedSpGEMM executes the SUMMA plan: one task per output tile, stolen
// off a shared counter, each folding its bk chain with a private dense or
// hash accumulator, then a final stitch into a flat CSR.
func blockedSpGEMM[A, B, C any](ab *BlockedCSR[A], bb *BlockedCSR[B],
	mul func(A, B) C, add func(C, C) C, mask Mask, e Exec, hint Kernel,
	prod tileRowLoop[A, B, C]) (out *CSR[C], err error) {
	defer recoverExec(&err)
	blockedOps.Add(1)
	gr, gc, gk := ab.GridR(), bb.GridC(), ab.GridC()
	slot := slotBytes[C]()
	maxTileCols := 0
	for bj := 0; bj < gc; bj++ {
		if w := bb.ColSplit[bj+1] - bb.ColSplit[bj]; w > maxTileCols {
			maxTileCols = w
		}
	}
	threads := degradeThreads(e, e.threads(), int64(maxTileCols)*slot)
	ntasks := gr * gc
	tInd := make([][]int, ntasks)
	tVal := make([][]C, ntasks)
	tRowLen := make([][]int, ntasks)
	// The per-task flop table scales with the grid area, so it is metered
	// like tile scratch.
	if cerr := e.charge(siteBlockTile, int64(ntasks)*8); cerr != nil {
		return nil, cerr
	}
	tFlops := make([]int64, ntasks)
	masked := mask.M != nil || mask.Complement
	parallel.Tasks(ntasks, threads, func(task int) {
		if ferr := siteBlockTile.Check(); ferr != nil {
			abort(ferr)
		}
		e.checkpoint()
		tileTasks.Add(1)
		bi, bj := task/gc, task%gc
		rlo := ab.RowSplit[bi]
		tr := ab.RowSplit[bi+1] - rlo
		clo := bb.ColSplit[bj]
		tc := bb.ColSplit[bj+1] - clo
		// Row-length + row-flop tables for this tile's rows.
		e.mustCharge(siteBlockTile, int64(tr)*16)
		rowLen := make([]int, tr)
		tRowLen[task] = rowLen
		if tr == 0 || tc == 0 {
			return
		}
		// Symbolic pass over the task's tile pairs: per-row flop bounds size
		// the hash table and pick the accumulator, as in the flat kernel.
		rowFlops := make([]int, tr)
		taskFlops, maxFlops := 0, 0
		for bk := 0; bk < gk; bk++ {
			if ab.TileMeta(bi, bk).NNZ == 0 || bb.TileMeta(bk, bj).NNZ == 0 {
				continue
			}
			at, bt := ab.Tile(bi, bk), bb.Tile(bk, bj)
			for li := 0; li < tr; li++ {
				ind, _ := at.Row(li)
				f := 0
				for _, k := range ind {
					f += bt.Ptr[k+1] - bt.Ptr[k]
				}
				rowFlops[li] += f
			}
		}
		for _, f := range rowFlops {
			taskFlops += f
			if f > maxFlops {
				maxFlops = f
			}
		}
		tFlops[task] = int64(taskFlops)
		if taskFlops == 0 {
			return
		}
		var ind []int
		var val []C
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
		// emitRow filters the sorted local pattern through the mask (row
		// cursor restarts per row — correct, the cursor is only a speedup)
		// and appends globalized columns.
		emitRow := func(li int, get func(jl int) C) {
			sort.Ints(pattern)
			start := len(ind)
			if masked {
				if mask.M != nil {
					mInd, mVal = mask.M.Row(rlo + li)
				}
				mk = 0
				for _, jl := range pattern {
					if admit(clo + jl) {
						ind = append(ind, clo+jl)
						val = append(val, get(jl))
					}
				}
			} else {
				for _, jl := range pattern {
					ind = append(ind, clo+jl)
					val = append(val, get(jl))
				}
			}
			rowLen[li] = len(ind) - start
		}
		useHash := chooseHash(hint, taskFlops, tc)
		denseBytes := int64(tc) * slot
		hashBytes := int64(hashCapacity(maxFlops)) * slot
		if !useHash && e.Tx != nil && !e.Tx.Fits(denseBytes) && hashBytes < denseBytes {
			useHash = true
			budgetDegrades.Add(1)
		}
		if useHash {
			tileHash.Add(1)
			e.mustCharge(siteBlockTile, hashBytes)
			tileScratch.Add(hashBytes)
			var h hashAccum[C]
			h.ensure(maxFlops)
			for li := 0; li < tr; li++ {
				if rowFlops[li] == 0 {
					continue
				}
				pattern = pattern[:0]
				for bk := 0; bk < gk; bk++ {
					if ab.TileMeta(bi, bk).NNZ == 0 || bb.TileMeta(bk, bj).NNZ == 0 {
						continue
					}
					at, bt := ab.Tile(bi, bk), bb.Tile(bk, bj)
					aInd, aVal := at.Row(li)
					for k := range aInd {
						bInd, bVal := bt.Row(aInd[k])
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
				}
				emitRow(li, func(jl int) C { return h.vals[h.slot(jl)] })
				h.reset()
			}
		} else {
			tileDense.Add(1)
			e.mustCharge(siteBlockTile, denseBytes)
			tileScratch.Add(denseBytes)
			spa := make([]C, tc)
			stamp := make([]int, tc)
			for li := 0; li < tr; li++ {
				if rowFlops[li] == 0 {
					continue
				}
				// The SPA generation persists across the bk fold, so the
				// first-assign-then-add chain per output position spans the
				// whole global k range — identical to the flat kernel's.
				gen := li + 1
				pattern = pattern[:0]
				for bk := 0; bk < gk; bk++ {
					if ab.TileMeta(bi, bk).NNZ == 0 || bb.TileMeta(bk, bj).NNZ == 0 {
						continue
					}
					pattern = prod(ab.Tile(bi, bk), bb.Tile(bk, bj), spa, stamp, gen, pattern, li)
				}
				emitRow(li, func(jl int) C { return spa[jl] })
			}
		}
		tInd[task] = ind
		tVal[task] = val
	})
	var work int64
	for _, f := range tFlops {
		work += f
	}
	noteSpan(modeledSpan(tFlops, threads), work)
	out = NewCSR[C](ab.Rows, bb.Cols)
	installTiled(out, ab.RowSplit, bb.ColSplit, tInd, tVal, tRowLen)
	return out, nil
}

// installTiled assembles the per-task tile outputs into a flat CSR: each
// global row concatenates its tile segments in ascending tile-column order,
// which is ascending global column order because tile emissions are sorted
// and globalized.
func installTiled[T any](out *CSR[T], rowSplit, colSplit []int, tInd [][]int, tVal [][]T, tRowLen [][]int) {
	gr := len(rowSplit) - 1
	gc := len(colSplit) - 1
	total := 0
	for _, s := range tInd {
		total += len(s)
	}
	out.Ind = make([]int, 0, total)
	out.Val = make([]T, 0, total)
	cur := make([]int, gr*gc)
	for bi := 0; bi < gr; bi++ {
		for li := 0; li < rowSplit[bi+1]-rowSplit[bi]; li++ {
			i := rowSplit[bi] + li
			for bj := 0; bj < gc; bj++ {
				task := bi*gc + bj
				if tRowLen[task] == nil {
					continue
				}
				n := tRowLen[task][li]
				if n == 0 {
					continue
				}
				c := cur[task]
				out.Ind = append(out.Ind, tInd[task][c:c+n]...)
				out.Val = append(out.Val, tVal[task][c:c+n]...)
				cur[task] = c + n
			}
			out.Ptr[i+1] = len(out.Ind)
		}
	}
	DebugCheckCSR(out, "installTiled")
}

// blockedSpMVDispatch routes a pull product through the blocked plan when
// the route is pinned (BlockForce). The auto policy never picks blocked
// SpMV: the flat pull kernel's row ranges already balance by nnz and the
// tile fold adds per-row segment overhead, so blocking only pays when the
// caller knows the matrix lives (or will live) in tiles.
func blockedSpMVDispatch[A, X, Y any](a *CSR[A], u *Vec[X],
	mul func(A, X) Y, add func(Y, Y) Y, mask VMask, e Exec) (out *Vec[Y], handled bool, err error) {
	if e.blockMode() != BlockForce {
		return nil, false, nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = panicToError(r)
			handled = true
		}
	}()
	gr, gc := autoGrid()
	ab, verr := a.BlockedViewEx(e, gr, gc)
	if verr != nil {
		return nil, true, verr
	}
	out, err = blockedSpMV(ab, u, mul, add, mask, e)
	return out, true, err
}

// blockedSpMV is the pull product over a blocked matrix: one task per tile
// row, each row folding its tile segments in ascending tile-column order
// with a single accumulator — the same global-k-ascending chain as the flat
// kernel, so the outputs match bit for bit. u is gathered densely once and
// shared read-only by all tasks.
func blockedSpMV[A, X, Y any](ab *BlockedCSR[A], u *Vec[X],
	mul func(A, X) Y, add func(Y, Y) Y, mask VMask, e Exec) (out *Vec[Y], err error) {
	defer recoverExec(&err)
	blockedOps.Add(1)
	pullCalls.Add(1)
	var zx X
	gatherBytes := int64(u.N) * int64(unsafe.Sizeof(zx)+1)
	e.mustCharge(siteBlockTile, gatherBytes)
	uval, uok := u.Scatter()
	tileScratch.Add(gatherBytes)
	admit := vmaskLookup(mask, ab.Rows)
	gr, gc := ab.GridR(), ab.GridC()
	pInd := make([][]int, gr)
	pVal := make([][]Y, gr)
	parallel.Tasks(gr, e.threads(), func(bi int) {
		if ferr := siteBlockTile.Check(); ferr != nil {
			abort(ferr)
		}
		e.checkpoint()
		tileTasks.Add(1)
		rlo := ab.RowSplit[bi]
		tr := ab.RowSplit[bi+1] - rlo
		var ind []int
		var val []Y
		for li := 0; li < tr; li++ {
			gi := rlo + li
			if admit != nil && !admit(gi) {
				continue
			}
			var acc Y
			any := false
			for bj := 0; bj < gc; bj++ {
				if ab.TileMeta(bi, bj).NNZ == 0 {
					continue
				}
				t := ab.Tile(bi, bj)
				clo := ab.ColSplit[bj]
				tInd, tVal := t.Row(li)
				for k := range tInd {
					j := clo + tInd[k]
					if !uok[j] {
						continue
					}
					p := mul(tVal[k], uval[j])
					if !any {
						acc = p
						any = true
					} else {
						acc = add(acc, p)
					}
				}
			}
			if any {
				ind = append(ind, gi)
				val = append(val, acc)
			}
		}
		pInd[bi] = ind
		pVal[bi] = val
	})
	return stitchVec(ab.Rows, pInd, pVal), nil
}

// blockedVxMDispatch routes a push product through the blocked plan when the
// route is pinned (BlockForce), mirroring blockedSpMVDispatch.
func blockedVxMDispatch[X, A, Y any](u *Vec[X], a *CSR[A],
	mul func(X, A) Y, add func(Y, Y) Y, mask VMask, e Exec) (out *Vec[Y], handled bool, err error) {
	if e.blockMode() != BlockForce {
		return nil, false, nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = panicToError(r)
			handled = true
		}
	}()
	gr, gc := autoGrid()
	ab, verr := a.BlockedViewEx(e, gr, gc)
	if verr != nil {
		return nil, true, verr
	}
	out, err = blockedVxM(u, ab, mul, add, mask, e)
	return out, true, err
}

// blockedVxM is the push product over a blocked matrix. The frontier is cut
// at exactly the flat kernel's partition boundaries (same thread clamping,
// same full-width SPA sizing for degradation) and each (partition, tile
// column) pair becomes one scatter task over a tile-width SPA; the reduction
// then folds partitions in ascending order per position and emits tile
// columns in ascending order — the same value chains and output order as
// VxMEx + reduceSpas, just with the column space processed per tile.
func blockedVxM[X, A, Y any](u *Vec[X], ab *BlockedCSR[A],
	mul func(X, A) Y, add func(Y, Y) Y, mask VMask, e Exec) (out *Vec[Y], err error) {
	defer recoverExec(&err)
	blockedOps.Add(1)
	pushCalls.Add(1)
	if mask.M == nil && mask.Complement {
		return NewVec[Y](ab.Cols), nil
	}
	threads := e.threads()
	nu := u.NNZ()
	if threads > nu {
		threads = nu
	}
	if threads < 1 {
		threads = 1
	}
	var zero Y
	// Degradation sizing uses the flat kernel's full-width SPA bound so the
	// effective partition count (and therefore the fold order) is identical.
	spaBytes := int64(ab.Cols) * int64(unsafe.Sizeof(zero)+1)
	threads = degradeThreads(e, threads, spaBytes)
	parts := parallel.Ranges(nu, threads)
	nparts := len(parts) - 1
	if nparts == 0 {
		return NewVec[Y](ab.Cols), nil
	}
	var admit []bool
	if mask.M != nil {
		admit = vmaskBitmap(mask, ab.Cols)
	}
	gc := ab.GridC()
	ntasks := nparts * gc
	spas := make([][]Y, ntasks)
	marks := make([][]bool, ntasks)
	// The hit bitmap scales with the task grid, so it is metered like tile
	// scratch.
	if cerr := e.charge(siteBlockTile, int64(ntasks)); cerr != nil {
		return nil, cerr
	}
	anyHit := make([]bool, ntasks)
	parallel.Tasks(ntasks, threads, func(task int) {
		if ferr := siteBlockTile.Check(); ferr != nil {
			abort(ferr)
		}
		e.checkpoint()
		tileTasks.Add(1)
		part, bj := task/gc, task%gc
		clo := ab.ColSplit[bj]
		tc := ab.ColSplit[bj+1] - clo
		if tc == 0 {
			return
		}
		tileBytes := int64(tc) * int64(unsafe.Sizeof(zero)+1)
		e.mustCharge(siteBlockTile, tileBytes)
		spa := make([]Y, tc)
		mark := make([]bool, tc)
		tileScratch.Add(tileBytes)
		hit := false
		br := 0
		for k := parts[part]; k < parts[part+1]; k++ {
			i := u.Ind[k]
			for i >= ab.RowSplit[br+1] {
				br++
			}
			t := ab.Tile(br, bj)
			aInd, aVal := t.Row(i - ab.RowSplit[br])
			uv := u.Val[k]
			for x := range aInd {
				jl := aInd[x]
				if admit != nil && !admit[clo+jl] {
					continue
				}
				p := mul(uv, aVal[x])
				if !mark[jl] {
					mark[jl] = true
					spa[jl] = p
					hit = true
				} else {
					spa[jl] = add(spa[jl], p)
				}
			}
		}
		spas[task] = spa
		marks[task] = mark
		anyHit[task] = hit
	})
	// Reduction: per tile column, fold partitions in ascending order per
	// local position and emit positions in ascending order; tile columns
	// concatenate in ascending order. Globally this is the identical
	// partition-ascending fold and column-ascending emission as reduceSpas.
	rInd := make([][]int, gc)
	rVal := make([][]Y, gc)
	parallel.Tasks(gc, threads, func(bj int) {
		clo := ab.ColSplit[bj]
		tc := ab.ColSplit[bj+1] - clo
		live := false
		for p := 0; p < nparts; p++ {
			if anyHit[p*gc+bj] {
				live = true
				break
			}
		}
		if !live {
			return
		}
		var ind []int
		var val []Y
		for jl := 0; jl < tc; jl++ {
			var acc Y
			any := false
			for p := 0; p < nparts; p++ {
				m := marks[p*gc+bj]
				if m == nil || !m[jl] {
					continue
				}
				if !any {
					acc = spas[p*gc+bj][jl]
					any = true
				} else {
					acc = add(acc, spas[p*gc+bj][jl])
				}
			}
			if any {
				ind = append(ind, clo+jl)
				val = append(val, acc)
			}
		}
		rInd[bj] = ind
		rVal[bj] = val
	})
	return stitchVec(ab.Cols, rInd, rVal), nil
}
