package sparse

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestPlan is the routing policy as one table: every statistics-, pin- or
// budget-driven branch between two kernel paths, with the route it must yield
// and the reason it must give. Pure — no kernels run, no counters read.
func TestPlan(t *testing.T) {
	t.Parallel()
	const dim = 1600
	loop := func(in planIn) planIn { in.hasLoop = true; return in }
	fits := func(in planIn) planIn { in.denseFits = true; return in }
	// A mask whose hash predicate is smaller than its bitmap, which fits ...
	sparseMask := func(in planIn) planIn {
		in.denseFits, in.maskHashSmaller, in.bitmapFits = true, true, true
		return in
	}
	// ... or is refused by the budget.
	refusedMask := func(in planIn) planIn { in = sparseMask(in); in.bitmapFits = false; return in }
	for _, tc := range []struct {
		name string
		plan func(planIn) Route
		in   planIn
		want Route
	}{
		// Direction under a mask: push iff pushCut·products < rows + probes
		// (the mask forms that make probes are dirIn's table below).
		{"dir: masked, few products", planDir, planIn{masked: true, work: 5, width: dim, probes: 8000}, Route{Push: true, Reason: ReasonSparseFrontier}},
		{"dir: masked, just under the cut", planDir, planIn{masked: true, work: (dim+8000)/pushCut - 1, width: dim, probes: 8000},
			Route{Push: true, Reason: ReasonSparseFrontier}},
		{"dir: masked, cut·products == rows + probes pulls", planDir, planIn{masked: true, work: (dim + 8000) / pushCut, width: dim, probes: 8000},
			Route{Reason: ReasonDenseFrontier}},
		{"dir: masked, the rows keep a push the probes would not", planDir, planIn{masked: true, work: dim/pushCut - 1, width: dim},
			Route{Push: true, Reason: ReasonSparseFrontier}},
		{"dir: masked, no probes, cut·products == rows pulls", planDir, planIn{masked: true, work: dim / pushCut, width: dim}, Route{Reason: ReasonDenseFrontier}},
		{"dir: masked, huge products do not overflow", planDir, planIn{masked: true, work: math.MaxInt, width: dim, probes: 8000}, Route{Reason: ReasonDenseFrontier}},
		// Unmasked over a non-full frontier, whose pull tests presence at every
		// probe: push iff 11·products < 10·(rows + probes).
		{"dir: unmasked, just under the probe cut", planDir, planIn{work: probeCutDen * (dim + 8000) / probeCutNum, width: dim, probes: 8000},
			Route{Push: true, Reason: ReasonSparseFrontier}},
		{"dir: unmasked, at the probe cut pulls", planDir, planIn{work: probeCutDen*(dim+8000)/probeCutNum + 1, width: dim, probes: 8000},
			Route{Reason: ReasonDenseFrontier}},
		{"dir: unmasked, pushes what the masked cut pulls", planDir, planIn{work: (dim + 8000) / pushCut, width: dim, probes: 8000},
			Route{Push: true, Reason: ReasonSparseFrontier}},
		{"dir: unmasked, huge products do not overflow", planDir, planIn{work: math.MaxInt, width: dim, probes: 8000}, Route{Reason: ReasonDenseFrontier}},
		// A full frontier pulls at any mean degree: its products are nnz(G),
		// which a flat 11/10 cut would push below degree 10.
		{"dir: full frontier, mean degree 1/2", planDir, planIn{full: true, work: dim / 2, width: dim, probes: dim / 2}, Route{Reason: ReasonFullFrontier}},
		{"dir: full frontier, mean degree 1", planDir, planIn{full: true, work: dim, width: dim, probes: dim}, Route{Reason: ReasonFullFrontier}},
		{"dir: full frontier, mean degree 8", planDir, planIn{full: true, work: 8 * dim, width: dim, probes: 8 * dim}, Route{Reason: ReasonFullFrontier}},
		{"dir: full frontier, masked", planDir, planIn{full: true, masked: true, work: dim, width: dim, probes: 8}, Route{Reason: ReasonFullFrontier}},
		{"dir: full frontier, push pinned", planDir, planIn{dir: DirPush, full: true, work: dim, width: dim, probes: dim}, Route{Push: true, Reason: ReasonPin}},
		{"dir: push pinned over many products", planDir, planIn{dir: DirPush, work: 8000, width: dim}, Route{Push: true, Reason: ReasonPin}},
		{"dir: pull pinned over few", planDir, planIn{dir: DirPull, work: 5, width: dim, probes: 8000}, Route{Reason: ReasonPin}},

		// SpGEMM row range (chooseHash's table at the constant cut).
		{"range: no flops", planRange, fits(planIn{work: 0, width: 5000}), Route{Acc: AccHash, Reason: ReasonFewFlops}},
		{"range: just under cols/2", planRange, fits(planIn{work: 2499, width: 5000}), Route{Acc: AccHash, Reason: ReasonFewFlops}},
		{"range: flops == cols/2 is dense", planRange, fits(planIn{work: 2500, width: 5000}), Route{Acc: AccDense, Reason: ReasonDenseWork}},
		{"range: just over", planRange, fits(planIn{work: 2501, width: 5000}), Route{Acc: AccDense, Reason: ReasonDenseWork}},
		{"range: huge flops do not overflow", planRange, fits(planIn{work: 1 << 40, width: 5000}), Route{Acc: AccDense, Reason: ReasonDenseWork}},
		{"range: zero columns", planRange, fits(planIn{}), Route{Acc: AccDense, Reason: ReasonDenseWork}},
		{"range: one column", planRange, fits(planIn{width: 1}), Route{Acc: AccDense, Reason: ReasonDenseWork}},
		{"range: dense pinned", planRange, fits(planIn{hint: KernelDense, width: 5000}), Route{Acc: AccDense, Reason: ReasonPin}},
		{"range: hash pinned", planRange, fits(planIn{hint: KernelHash, work: 1 << 40, width: 8}), Route{Acc: AccHash, Reason: ReasonPin}},
		{"range: dense SPA does not fit, hash is smaller", planRange,
			planIn{work: 4000, width: 5000, hashSmaller: true}, Route{Acc: AccHash, Reason: ReasonBudgetSPA}},
		{"range: dense SPA does not fit, hash is no smaller", planRange,
			planIn{work: 4000, width: 5000}, Route{Acc: AccDense, Reason: ReasonDenseWork}},
		{"range: a pinned dense SPA yields to the budget too", planRange,
			planIn{hint: KernelDense, work: 4000, width: 5000, hashSmaller: true}, Route{Acc: AccHash, Reason: ReasonBudgetSPA}},

		// Mask-first: a dense range under a non-complemented mask no heavier
		// than the range's flop bound.
		{"range: mask lighter than the work", planRange, fits(planIn{work: 4000, width: 5000, masked: true, maskNNZ: 300}),
			Route{Acc: AccDense, MaskFirst: true, Reason: ReasonMaskFirst}},
		{"range: mask nnz == flops is mask-first", planRange, fits(planIn{work: 4000, width: 5000, masked: true, maskNNZ: 4000}),
			Route{Acc: AccDense, MaskFirst: true, Reason: ReasonMaskFirst}},
		{"range: mask one entry heavier filters at emit", planRange, fits(planIn{work: 4000, width: 5000, masked: true, maskNNZ: 4001}),
			Route{Acc: AccDense, Reason: ReasonDenseWork}},
		{"range: a complemented mask filters at emit", planRange, fits(planIn{work: 4000, width: 5000, masked: true, maskNNZ: 300, maskComp: true}),
			Route{Acc: AccDense, Reason: ReasonDenseWork}},
		{"range: complement with no mask matrix", planRange, fits(planIn{work: 4000, width: 5000, maskComp: true}),
			Route{Acc: AccDense, Reason: ReasonDenseWork}},
		{"range: a hash range filters at emit", planRange, fits(planIn{work: 2499, width: 5000, masked: true, maskNNZ: 300}),
			Route{Acc: AccHash, Reason: ReasonFewFlops}},
		{"range: hash pinned filters at emit", planRange, fits(planIn{hint: KernelHash, work: 4000, width: 5000, masked: true, maskNNZ: 300}),
			Route{Acc: AccHash, Reason: ReasonPin}},
		{"range: dense pinned runs mask-first", planRange, fits(planIn{hint: KernelDense, work: 10, width: 5000, masked: true, maskNNZ: 10}),
			Route{Acc: AccDense, MaskFirst: true, Reason: ReasonMaskFirst}},
		{"range: dense pinned, heavier mask", planRange, fits(planIn{hint: KernelDense, work: 10, width: 5000, masked: true, maskNNZ: 11}),
			Route{Acc: AccDense, Reason: ReasonPin}},
		{"range: a budget-refused SPA cannot run mask-first", planRange, planIn{work: 4000, width: 5000, masked: true, maskNNZ: 300, hashSmaller: true},
			Route{Acc: AccHash, Reason: ReasonBudgetSPA}},
		{"range: empty mask over an empty dense range", planRange, fits(planIn{width: 1, masked: true}),
			Route{Acc: AccDense, MaskFirst: true, Reason: ReasonMaskFirst}},

		// Matrix product, call level.
		{"product: family loop", planProduct, loop(planIn{}), Route{Family: true}},
		{"product: dense pinned keeps it", planProduct, loop(planIn{hint: KernelDense}), Route{Family: true, Reason: ReasonPin}},
		{"product: hint == KernelHash drops it", planProduct, loop(planIn{hint: KernelHash}), Route{Reason: ReasonPin}},
		{"product: no loop", planProduct, planIn{}, Route{}},

		// Pull gather: work is gatherWork (table inserts + lookups), whatever
		// the frontier's own density.
		{"pull: work == n is dense", planPull, fits(loop(planIn{work: 20, width: 20})), Route{Family: true, Acc: AccDense, Reason: ReasonDenseWork}},
		{"pull: work == n/2 is dense", planPull, fits(loop(planIn{work: 10, width: 20})), Route{Family: true, Acc: AccDense, Reason: ReasonDenseWork}},
		{"pull: work == n/2-1 hash-gathers", planPull, fits(loop(planIn{work: 9, width: 20})), Route{Acc: AccHash, Reason: ReasonFewProbes}},
		{"pull: hash pinned over many probes", planPull, fits(loop(planIn{hint: KernelHash, work: 20, width: 20})),
			Route{Acc: AccHash, Reason: ReasonPin}},
		{"pull: dense pinned over few probes", planPull, fits(loop(planIn{hint: KernelDense, work: 1, width: 20})),
			Route{Family: true, Acc: AccDense, Reason: ReasonPin}},
		{"pull: closure loop, dense gather", planPull, fits(planIn{work: 20, width: 20}), Route{Acc: AccDense, Reason: ReasonDenseWork}},
		{"pull: denseFits == false", planPull, loop(planIn{work: 20, width: 20, hashSmaller: true}), Route{Acc: AccHash, Reason: ReasonBudgetGather}},
		{"pull: denseFits == false, hash no smaller", planPull, loop(planIn{work: 20, width: 20}),
			Route{Family: true, Acc: AccDense, Reason: ReasonDenseWork}},
		{"pull: a pinned dense gather yields to the budget too", planPull, loop(planIn{hint: KernelDense, work: 1, width: 20, hashSmaller: true}),
			Route{Acc: AccHash, Reason: ReasonBudgetGather}},
		// A pull's mask is probed once per row, n probes against n bytes: a
		// bitmap, beside a hash gather too, unless the budget refuses it and
		// the hash predicate is the smaller of the two.
		{"pull: sparse mask, dense gather: a bitmap", planPull,
			sparseMask(loop(planIn{work: 20, width: 20})), Route{Family: true, Acc: AccDense, Reason: ReasonDenseWork}},
		{"pull: sparse mask, hash gather: a bitmap costs less than n probes there too", planPull,
			sparseMask(loop(planIn{work: 9, width: 20})), Route{Acc: AccHash, Reason: ReasonFewProbes}},
		{"pull: dense mask is a bitmap", planPull, fits(loop(planIn{work: 20, width: 20, bitmapFits: true})),
			Route{Family: true, Acc: AccDense, Reason: ReasonDenseWork}},
		{"pull: a refused bitmap is a hash predicate", planPull, refusedMask(loop(planIn{work: 20, width: 20})),
			Route{Family: true, Acc: AccDense, HashMask: true, Reason: ReasonBudgetMask}},
		{"pull: a refused bitmap beside a hash gather", planPull, refusedMask(loop(planIn{work: 9, width: 20})),
			Route{Acc: AccHash, HashMask: true, Reason: ReasonBudgetMask}},
		{"pull: a refused bitmap, table no smaller: the bitmap is charged and may fail", planPull,
			fits(loop(planIn{work: 20, width: 20})), Route{Family: true, Acc: AccDense, Reason: ReasonDenseWork}},

		// Push: work is the frontier's products against the width's output
		// columns; hashSmaller compares the table's bytes with the SPA's.
		{"push: family loop", planPush, fits(loop(planIn{work: 50, width: 100})),
			Route{Push: true, Family: true, Acc: AccDense, Reason: ReasonDenseWork}},
		{"push: closure loop", planPush, fits(planIn{work: 50, width: 100}), Route{Push: true, Acc: AccDense, Reason: ReasonDenseWork}},
		{"push: few products → hash", planPush, fits(loop(planIn{work: 49, width: 100, hashSmaller: true})),
			Route{Push: true, Acc: AccHash, Reason: ReasonFewFlops}},
		{"push: few products, hash no smaller → dense", planPush, fits(loop(planIn{work: 3, width: 100})),
			Route{Push: true, Family: true, Acc: AccDense, Reason: ReasonDenseWork}},
		{"push: products == cols/2 → dense", planPush, fits(loop(planIn{work: 50, width: 100, hashSmaller: true})),
			Route{Push: true, Family: true, Acc: AccDense, Reason: ReasonDenseWork}},
		{"push: dense refused and hash smaller → hash", planPush, loop(planIn{work: 80, width: 100, hashSmaller: true}),
			Route{Push: true, Acc: AccHash, Reason: ReasonBudgetSPA}},
		{"push: dense refused, hash no smaller: the SPA is charged and may fail", planPush, loop(planIn{work: 80, width: 100}),
			Route{Push: true, Family: true, Acc: AccDense, Reason: ReasonDenseWork}},
		{"push: pinned hash", planPush, fits(loop(planIn{hint: KernelHash, work: 80, width: 100})),
			Route{Push: true, Acc: AccHash, Reason: ReasonPin}},
		{"push: pinned dense over few products", planPush, fits(loop(planIn{hint: KernelDense, work: 3, width: 100, hashSmaller: true})),
			Route{Push: true, Family: true, Acc: AccDense, Reason: ReasonPin}},
		// ... and the mask: nnz(m) inserts + one probe per product against
		// the bitmap's width bytes.
		{"push: dense mask is the family loop's bitmap", planPush, fits(loop(planIn{bitmapFits: true, maskNNZ: 1, work: 50, width: 100})),
			Route{Push: true, Family: true, Acc: AccDense, Reason: ReasonDenseWork}},
		{"push: mask nnz < n/2 but inserts + probes >= n/2: family loop, bitmap", planPush,
			sparseMask(loop(planIn{maskNNZ: 3, work: 47, width: 100})), Route{Push: true, Family: true, Acc: AccDense, Reason: ReasonDenseWork}},
		{"push: few inserts + probes keep the closure loop", planPush, sparseMask(loop(planIn{maskNNZ: 3, work: 46, width: 100})),
			Route{Push: true, Acc: AccDense, HashMask: true, Reason: ReasonHyperMask}},
		{"push: few inserts + probes beside a hash table", planPush, sparseMask(loop(planIn{maskNNZ: 3, work: 46, width: 100, hashSmaller: true})),
			Route{Push: true, Acc: AccHash, HashMask: true, Reason: ReasonHyperMask}},
		{"push: closure loop, inserts + probes == cols/2 is a bitmap", planPush, sparseMask(planIn{maskNNZ: 3, work: 47, width: 100}),
			Route{Push: true, Acc: AccDense, Reason: ReasonDenseWork}},
		{"push: a refused bitmap drops the family loop", planPush, refusedMask(loop(planIn{maskNNZ: 3, work: 47, width: 100})),
			Route{Push: true, Acc: AccDense, HashMask: true, Reason: ReasonBudgetMask}},
		{"push: a refused bitmap, table no smaller: the bitmap is charged and may fail", planPush,
			fits(loop(planIn{maskNNZ: 3, work: 47, width: 100})), Route{Push: true, Family: true, Acc: AccDense, Reason: ReasonDenseWork}},
		{"push: refused SPA and bitmap: the SPA's reason stays", planPush,
			loop(planIn{maskNNZ: 3, work: 80, width: 100, hashSmaller: true, maskHashSmaller: true}),
			Route{Push: true, Acc: AccHash, HashMask: true, Reason: ReasonBudgetSPA}},
	} {
		if got := tc.plan(tc.in); got != tc.want {
			t.Errorf("%s: route %+v, want %+v", tc.name, got, tc.want)
		}
	}

	// gatherWork is the pull rows' work: nnz(u) inserts plus one lookup per
	// stored entry of every row the mask lists — all of G under no mask or a
	// complemented one — and it stops counting at the cut. The listed-row sum
	// is listedWork, which the push rows count the frontier's products with.
	ptr := []int{0, 4, 4, 10, 11, 30} // five rows: 4, 0, 6, 1 and 19 entries
	rows := func(ind ...int) VMask { return VMask{M: &Vec[bool]{N: 5, Ind: ind, Val: make([]bool, len(ind))}} }
	comp := rows(0, 2)
	comp.Complement = true
	for _, tc := range []struct {
		name string
		mask VMask
		want int
	}{
		{"unmasked: nnz(G)", VMask{}, 3 + 30},
		{"complemented: nnz(G)", comp, 3 + 30},
		{"complemented nil mask: nnz(G)", VMask{Complement: true}, 3 + 30},
		{"listed rows: their entries, stored falses included", rows(0, 1, 3), 3 + 5},
		{"no listed row: the inserts alone", rows(), 3},
		{"reaching the cut stops the count", rows(0, 2, 3, 4), 3 + 10},
	} {
		if got := gatherWork(ptr, 3, tc.mask, 12); got != tc.want {
			t.Errorf("gatherWork %s = %d, want %d", tc.name, got, tc.want)
		}
	}

	// dirIn: what the pull probes under each mask form, over G = ptr (30
	// entries in 5 rows), on both sides of the cut: the fewest products the
	// rule pulls, at, is ⌈(5 + probes)/pushCut⌉ under a mask and
	// ⌈10·(5 + probes)/11⌉ without one; a full frontier pulls at either.
	structural := func(comp bool, ind ...int) VMask {
		m := rows(ind...)
		m.Structural, m.Complement = true, comp
		return m
	}
	valuedComp := rows(0, 2, 4)
	valuedComp.Complement = true
	for _, tc := range []struct {
		name   string
		mask   VMask
		gptr   []int
		probes int
	}{
		{"unmasked: all of G", VMask{}, ptr, 30},
		{"structural complement: G less rows 0 and 2", structural(true, 0, 2), ptr, 20},
		{"structural complement: all but one entry masked, the count stopping at the cut", structural(true, 0, 2, 4), ptr, 1},
		{"valued complement: the nnz(G) bound", valuedComp, ptr, 30},
		{"non-complemented: the listed rows", structural(false, 1, 3), ptr, 1},
		{"non-complemented: a stored false's row counts", rows(4), ptr, 19},
		{"G not materialized: a masked row counts the mean, 6", structural(true, 0, 2), nil, 18},
	} {
		at := (5 + tc.probes + pushCut - 1) / pushCut
		if tc.mask.M == nil {
			at = (probeCutDen*(5+tc.probes) + probeCutNum - 1) / probeCutNum
		}
		for _, products := range []int{at - 1, at} {
			in := dirIn(DirAuto, products, 30, tc.gptr, tc.mask, 5, false)
			if got := planDir(in); got.Push != (products < at) {
				t.Errorf("dirIn %s: %d products route %+v (probes read %d), want push %v", tc.name, products, got, in.probes, products < at)
			}
			if pinned := planDir(dirIn(DirPull, products, 30, tc.gptr, tc.mask, 5, false)); pinned != (Route{Reason: ReasonPin}) {
				t.Errorf("dirIn %s: the pull pin gave %+v", tc.name, pinned)
			}
			if full := planDir(dirIn(DirAuto, products, 30, tc.gptr, tc.mask, 5, true)); full != (Route{Reason: ReasonFullFrontier}) {
				t.Errorf("dirIn %s: a full frontier gave %+v", tc.name, full)
			}
		}
	}

	// PlanDir counts the products over R, and reports what it planned with:
	// an MxV whose transpose is not yet built plans with nnz(u)·nnz/inDim.
	a := &CSR[int]{Rows: 5, Cols: 2, Ptr: []int{0, 1, 2, 3, 4, 5}, Ind: []int{0, 0, 0, 0, 1}, Val: make([]int, 5)}
	u := &Vec[int]{N: 5, Ind: []int{0, 4}, Val: []int{1, 1}}
	if rt, products := PlanDir(DirAuto, a, false, u, VMask{}); products != 2 || rt != planDir(dirIn(DirAuto, 2, 5, nil, VMask{}, 2, false)) {
		t.Errorf("vxm over the stored rows: %d products, route %+v; want 2", products, rt)
	}
	w := &Vec[int]{N: 2, Ind: []int{0}, Val: []int{1}} // column 0 holds 4 of 5 entries
	if rt, products := PlanDir(DirAuto, a, true, w, VMask{}); products != 5/2 || rt != planDir(dirIn(DirAuto, 5/2, 5, a.Ptr, VMask{}, 5, false)) {
		t.Errorf("mxv, transpose not built: %d products, route %+v; want 1·5/2", products, rt)
	}
	TransposeCached(a)
	if _, products := PlanDir(DirAuto, a, true, w, VMask{}); products != 4 {
		t.Errorf("mxv, transpose built: %d products, want 4", products)
	}
	full := &Vec[int]{N: 2, Ind: []int{0, 1}, Val: []int{1, 1}}
	if rt, products := PlanDir(DirAuto, a, true, full, VMask{}); products != 5 || rt != (Route{Reason: ReasonFullFrontier}) {
		t.Errorf("mxv over a full frontier: %d products, route %+v; want all 5, pulled", products, rt)
	}

	// ChoosePush is the rule read as if every row of R held one entry.
	visited := &Vec[bool]{N: dim, Ind: fullPattern(1000), Val: make([]bool, 1000)}
	for _, tc := range []struct {
		nnzU int
		mask VMask
		want bool
	}{
		{probeCutDen * 2 * dim / probeCutNum, VMask{}, true}, {probeCutDen*2*dim/probeCutNum + 1, VMask{}, false},
		{dim, VMask{}, false}, {dim, VMask{M: visited, Structural: true, Complement: true}, false},
		{(2*dim-1000)/pushCut - 1, VMask{M: visited, Structural: true, Complement: true}, true},
		{(2*dim - 1000) / pushCut, VMask{M: visited, Structural: true, Complement: true}, false},
	} {
		if got := ChoosePush(tc.nnzU, dim, tc.mask, dim); got != tc.want {
			t.Errorf("ChoosePush(%d, %d, mask %v) = %v, want %v", tc.nnzU, dim, tc.mask.M != nil, got, tc.want)
		}
	}

	// Sort-or-scan emit: scan once n·⌈log₂ n⌉ exceeds the width.
	for _, tc := range []struct {
		n, width int
		want     bool
	}{
		{0, 0, false}, {1, 0, false}, {1, 1, false}, {2, 1, true}, {2, 2, false},
		{256, 2048, false}, // 256·8 == 2048: sort
		{257, 2048, true},  // 257·9
		{228, 2048, false}, // 228·8 < 2048
		{400, 2048, true},
		{8, 24, false}, {9, 35, true}, {9, 36, false},
	} {
		if got := scanEmit(tc.n, tc.width); got != tc.want {
			t.Errorf("scanEmit(%d, %d) = %v, want %v", tc.n, tc.width, got, tc.want)
		}
	}

	// A matrix product reports what its ranges did, and the weightiest why.
	dense := Route{Acc: AccDense, Reason: ReasonDenseWork}
	hash := Route{Acc: AccHash, Reason: ReasonFewFlops}
	refused := Route{Acc: AccHash, Reason: ReasonBudgetSPA}
	family := Route{Family: true, Acc: AccDense, Reason: ReasonDenseWork}
	maskFirst := Route{Acc: AccDense, MaskFirst: true, Reason: ReasonMaskFirst}
	for _, tc := range []struct {
		name   string
		call   Route
		ranges []Route
		want   Route
		label  string
	}{
		{"no ranges ran", Route{Family: true}, []Route{{}, {}}, Route{Family: true}, "auto+mono"},
		{"all dense", Route{}, []Route{dense, {}, dense}, dense, "auto(dense)"},
		{"a family loop some range ran", Route{Family: true}, []Route{hash, family}, Route{Family: true, Acc: AccMixed, Reason: ReasonRangesSplit}, "auto(mixed)+mono"},
		{"a family loop no range ran", Route{Family: true}, []Route{hash}, hash, "auto(hash)"},
		{"all mask-first is a closure call", Route{Family: true}, []Route{maskFirst, {}, maskFirst}, maskFirst, "auto(dense)"},
		{"mask-first beside filter-at-emit is a split", Route{Family: true}, []Route{family, maskFirst, family},
			Route{Family: true, Acc: AccDense, Reason: ReasonRangesSplit}, "auto(dense)+mono"},
		{"mask-first first, then filter-at-emit", Route{}, []Route{maskFirst, dense}, Route{Acc: AccDense, Reason: ReasonRangesSplit}, "auto(dense)"},
		{"mask-first beside a refused SPA", Route{}, []Route{maskFirst, refused}, Route{Acc: AccMixed, Reason: ReasonBudgetSPA}, "auto(mixed)"},
		{"split", Route{}, []Route{dense, hash}, Route{Acc: AccMixed, Reason: ReasonRangesSplit}, "auto(mixed)"},
		{"budget outranks the split", Route{}, []Route{dense, refused}, Route{Acc: AccMixed, Reason: ReasonBudgetSPA}, "auto(mixed)"},
	} {
		got := mergeRanges(tc.call, tc.ranges)
		if got != tc.want {
			t.Errorf("mergeRanges %s: %+v, want %+v", tc.name, got, tc.want)
		}
		if l := got.ProductLabel(); l != tc.label {
			t.Errorf("mergeRanges %s: label %q, want %q", tc.name, l, tc.label)
		}
	}
	if l := (Route{Push: true}).MatVecLabel(); l != "push" {
		t.Errorf("push label %q", l)
	}
	if l := (Route{Family: true, Acc: AccDense}).MatVecLabel(); l != "pull+mono" {
		t.Errorf("pull label %q", l)
	}

	// Every reason has its text, and only the budget rows count as degrades.
	for r := ReasonNone; r <= ReasonBudgetMask; r++ {
		if (r.String() == "") != (r == ReasonNone) {
			t.Errorf("reason %d has text %q", r, r)
		}
		want := r == ReasonBudgetGather || r == ReasonBudgetSPA || r == ReasonBudgetPush || r == ReasonBudgetMask
		if r.Budget() != want {
			t.Errorf("reason %q: Budget() = %v", r, r.Budget())
		}
	}
}

// TestWorkers is the fork rule as a table — clamp(work/grain, 1, threads),
// the zero grain meaning DefaultGrain — and what an observing caller reads
// back.
func TestWorkers(t *testing.T) {
	t.Parallel()
	const g = DefaultGrain
	for _, tc := range []struct {
		name                 string
		work, grain, threads int
		want                 int
	}{
		{"no work", 0, 0, 4, 1},
		{"a grain less one", g - 1, 0, 4, 1},
		{"one grain is one worker's", g, 0, 4, 1},
		{"two grains less one", 2*g - 1, 0, 4, 1},
		{"two grains are two workers'", 2 * g, 0, 4, 2},
		{"three grains, two threads", 3 * g, 0, 2, 2},
		{"three grains, four threads", 3 * g, 0, 4, 3},
		{"huge work is capped by the threads", math.MaxInt, 0, 4, 4},
		{"huge work, one thread", math.MaxInt, 0, 1, 1},
		{"the zero Exec is serial", math.MaxInt, 0, 0, 1},
		{"an explicit grain replaces the default", 250, 100, 4, 2},
		{"grain 1 forks a toy input", 3, 1, 4, 3},
		{"a huge grain never forks", math.MaxInt, math.MaxInt, 4, 1},
		{"a negative grain reads as the default", 2 * g, -5, 4, 2},
	} {
		var rt Route
		e := Exec{Threads: tc.threads, Grain: tc.grain, Route: &rt}
		if got := e.workers(tc.work); got != tc.want || rt.Workers != tc.want {
			t.Errorf("%s: workers(%d) at grain %d, %d threads = %d (reported %d), want %d",
				tc.name, tc.work, tc.grain, tc.threads, got, rt.Workers, tc.want)
		}
	}

	// The widest section is what a kernel reports, and note keeps it.
	var rt Route
	e := Exec{Threads: 4, Grain: 10, Route: &rt}
	e.workers(30)
	e.workers(10)
	e.note(Route{Push: true})
	if want := (Route{Push: true, Workers: 3}); rt != want {
		t.Errorf("after sections of 3 and 1 workers the route reads %+v, want %+v", rt, want)
	}

}

// TestForkIsSizedByCountedWork pins what each scaffold counts as its work, on
// the cases where a guess made outside the kernel went wrong.
func TestForkIsSizedByCountedWork(t *testing.T) {
	mul := func(x, y int) int { return x * y }
	add := func(x, y int) int { return x + y }
	rng := rand.New(rand.NewSource(progSeed(t)))

	// Push: the frontier's products, not its entries and not nnz(A). Two
	// frontier vertices with ten edges between them are one worker's at any
	// thread count, where the clamp by frontier entries made two.
	n := 4096
	a := sprayCSR(rng, n, n, 5*n, func(r *rand.Rand) int { return 1 + r.Intn(9) })
	u := &Vec[int]{N: n, Ind: []int{3, 77}, Val: []int{1, 1}}
	var rt Route
	ResetKernelCounts()
	if _, err := vxmSemi(SemiGeneric, u, a, mul, add, VMask{}, Exec{Threads: 4, Route: &rt}, KernelDense); err != nil {
		t.Fatal(err)
	}
	oneSPA := int64(n) * int64(unsafe.Sizeof(int(0))+1)
	if got := ScratchBytes(); got != oneSPA || rt.Workers != 1 {
		t.Errorf("a 2-vertex frontier at 4 threads: %d B of scratch on %d workers, want one %d B SPA on 1",
			got, rt.Workers, oneSPA)
	}
	// ... and at a grain its products do cover, each worker owns a quarter
	// of the columns: the four SPAs add up to one.
	rt = Route{}
	if _, err := vxmSemi(SemiGeneric, u, a, mul, add, VMask{}, Exec{Threads: 4, Grain: 1, Route: &rt}, KernelDense); err != nil {
		t.Fatal(err)
	}
	if got := ScratchBytes() - oneSPA; got != oneSPA || rt.Workers != 4 {
		t.Errorf("the same frontier at grain 1: %d B of scratch on %d workers, want one SPA's on 4", got, rt.Workers)
	}
	// Unpinned, ten products take a table that one worker fills.
	rt = Route{}
	ResetKernelCounts()
	if _, err := VxMSemiEx(SemiGeneric, SpecAuto, u, a, mul, add, VMask{}, Exec{Threads: 4, Grain: 1, Route: &rt}); err != nil {
		t.Fatal(err)
	}
	table := int64(hashCapacity(listedWork(a.Ptr, u.Ind, 0, math.MaxInt))) * slotBytes[int]()
	if got := ScratchBytes(); got != table || rt.Workers != 1 || rt.Acc != AccHash {
		t.Errorf("the same frontier unpinned: %d B of scratch on %d workers, route %+v; want a %d B table on 1", got, rt.Workers, rt, table)
	}

	// Pull under a mask that lists its rows: the listed rows' entries, however
	// many the matrix has.
	few := &Vec[bool]{N: n, Ind: []int{1, 2, 3}, Val: []bool{true, true, true}}
	full := fullVec(rng, n, func(r *rand.Rand) int { return 1 + r.Intn(9) })
	lookups := a.span(1, 4)
	for _, tc := range []struct{ grain, want int }{{lookups, 1}, {lookups / 2, 2}, {a.NNZ() / 4, 1}} {
		rt = Route{}
		e := Exec{Threads: 4, Grain: tc.grain, Route: &rt}
		if _, err := SpMVSemiEx(SemiGeneric, SpecAuto, a, full, mul, add, VMask{M: few, Structural: true}, e, KernelAuto); err != nil {
			t.Fatal(err)
		}
		if rt.Workers != tc.want {
			t.Errorf("a pull of %d listed entries at grain %d ran on %d workers, want %d", lookups, tc.grain, rt.Workers, tc.want)
		}
	}
	// Unmasked it is all of A.
	rt = Route{}
	if _, err := SpMVSemiEx(SemiGeneric, SpecAuto, a, full, mul, add, VMask{}, Exec{Threads: 4, Grain: a.NNZ() / 3, Route: &rt}, KernelAuto); err != nil {
		t.Fatal(err)
	}
	if rt.Workers != 3 {
		t.Errorf("an unmasked pull of 3 grains ran on %d workers, want 3", rt.Workers)
	}

	// Kron: nnz(A)·nnz(B) as the kernel's checked multiply has it — formed
	// outside, in plain int arithmetic, it wrapped to 0 for two 2³²-entry
	// operands and sized the product at one thread by accident.
	x := sprayCSR(rng, 8, 8, 20, func(r *rand.Rand) int { return 1 })
	y := sprayCSR(rng, 8, 8, 30, func(r *rand.Rand) int { return 1 })
	for _, tc := range []struct{ grain, want int }{{x.NNZ() * y.NNZ(), 1}, {x.NNZ() * y.NNZ() / 2, 2}, {x.NNZ() + y.NNZ(), 4}} {
		rt = Route{}
		if _, err := Kron(x, y, mul, Exec{Threads: 4, Grain: tc.grain, Route: &rt}); err != nil {
			t.Fatal(err)
		}
		if rt.Workers != tc.want {
			t.Errorf("a Kronecker product of %d entries at grain %d ran on %d workers, want %d",
				x.NNZ()*y.NNZ(), tc.grain, rt.Workers, tc.want)
		}
	}

	// SpGEMM: the symbolic pass by nnz(A), the numeric pass by its flops.
	fl := SpGEMMFlops(a, a, 1)[a.Rows]
	rt = Route{}
	if _, err := SpGEMMSemiEx(SemiGeneric, SpecAuto, a, a, mul, add, Mask{}, Exec{Threads: 4, Grain: fl / 2, Route: &rt}, KernelAuto); err != nil {
		t.Fatal(err)
	}
	if fl < 2*a.NNZ() || rt.Workers != 2 {
		t.Errorf("a product of %d flops over %d entries at grain %d ran on %d workers, want 2", fl, a.NNZ(), fl/2, rt.Workers)
	}
}

// TestFamilyLoopTables pins what the loop tables resolve: each of the seven
// (family, hot type) pairs finds its loop for all three scaffolds, and
// everything else — a named element type over a hot underlying type, mixed
// domains, an untagged semiring — resolves to nil and so runs
// the closure loop, the only one allowed to call the caller's operators. The
// reductions' table holds (+) over int64 and float64 and nothing else: not a
// named element type, not int, and not an untagged monoid such as SSSP's
// keepNaN.
func TestFamilyLoopTables(t *testing.T) {
	t.Parallel()
	type Score float64
	for _, tc := range []struct {
		name     string
		resolved [3]bool // SpGEMM, pull, push
		want     bool
	}{
		{"plus_times/int64", resolves[int64, int64, int64](SemiPlusTimes), true},
		{"plus_times/float64", resolves[float64, float64, float64](SemiPlusTimes), true},
		{"min_plus/int64", resolves[int64, int64, int64](SemiMinPlus), true},
		{"min_plus/float64", resolves[float64, float64, float64](SemiMinPlus), true},
		{"lor_land/bool", resolves[bool, bool, bool](SemiLorLand), true},
		{"plus_pair/int64", resolves[int64, int64, int64](SemiPlusPair), true},
		{"plus_pair/float64", resolves[float64, float64, float64](SemiPlusPair), true},

		{"named element type", resolves[Score, Score, Score](SemiPlusTimes), false},
		{"mixed bool×bool→int64", resolves[bool, bool, int64](SemiPlusPair), false},
		{"one foreign operand", resolves[float64, int64, float64](SemiPlusTimes), false},
		{"lor_land over int64", resolves[int64, int64, int64](SemiLorLand), false},
		{"untagged semiring", resolves[float64, float64, float64](SemiGeneric), false},
	} {
		for shape, got := range tc.resolved {
			if got != tc.want {
				t.Errorf("%s: scaffold %d resolved = %v, want %v", tc.name, shape, got, tc.want)
			}
		}
	}
	for _, tc := range []struct {
		name string
		got  bool
		want bool
	}{
		{"plus/int64", reduces[int64](MonPlus), true},
		{"plus/float64", reduces[float64](MonPlus), true},

		{"plus over a named element type", reduces[Score](MonPlus), false},
		{"plus over int", reduces[int](MonPlus), false},
		{"untagged monoid (keepNaN)", reduces[float64](MonGeneric), false},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: reduction resolved = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

// reduces reports, for element type T, whether the reductions' table lookup
// finds a family loop.
func reduces[T any](mon Mon) bool {
	return familyLoop[func([]T) T](reduceLoops[:], mon) != nil
}

// resolves reports, for operand types (A, B) → C, whether each scaffold's
// table lookup finds a family loop.
func resolves[A, B, C any](semi Semi) [3]bool {
	return [3]bool{
		familyLoop[func(*CSR[A], *CSR[B], []C, []int, int, []int, int) []int](spgemmLoops[:], semi) != nil,
		familyLoop[func(*CSR[A], []B, []bool, func(int) bool, []int, []C, int, int) ([]int, []C)](spmvLoops[:], semi) != nil,
		familyLoop[func(*Vec[A], *CSR[B], []bool, bool, []C, []bool, int, int) int](vxmLoops[:], semi) != nil,
	}
}
