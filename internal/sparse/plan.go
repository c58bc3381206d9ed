package sparse

import (
	"math"
	"math/bits"
)

// The route planner. Every branch between two kernel paths that depends on
// operand statistics or a pin is a row of one of the four pure
// functions below — the direction of a matrix-vector product (planDir), the
// gather side of the pull scaffold (planPull), the scatter side of the push
// scaffold (planPush) and the accumulator and mask handling of one SpGEMM row
// range (planProduct + planRange; scanEmit is the per-row emit predicate
// beside them). They read plain numbers and booleans, allocate nothing, and
// return a comparable Route whose Reason says which row fired, so the whole
// routing policy is one table (TestPlan) and the kernel event can carry "why"
// without the kernels formatting anything.
//
// The two thresholds are constants: no caller ever used another value.

// hashCut is the dense-vs-hash cut: work (a range's flop bound, a gather's
// table operations, a mask's nnz, a push's products) below width/hashCut
// takes the hash structure. 2 comes from the cost model: the dense structure
// costs O(width) to materialize plus ~1 unit per unit of work; the hash one
// skips the O(width) term but pays ~3 units per unit of work (hash, probe,
// re-probe at emit). Hash wins iff width > (3-1)·work. The margin bounds the
// table in slots, not in bytes: its 2·work slots are fewer than width before
// the power-of-two rounding, but a slot is an index word and a value — 16 B
// for float64 against the dense push SPA's 9 B a column. So the push row
// (planPush) also compares the two structures' bytes.
const hashCut = 2

// pushCut is the direction cut, in edges, of a masked pull: push when
// pushCut · the frontier's products < the rows the pull walks + the entries
// it probes (planDir). Of 2, 3 and 4 it is the fastest BFS on rmat-16
// (EXPERIMENTS.md, "Frontier SSSP and edge-counted direction"). An unmasked
// pull over a non-full frontier branches on presence at every probe, so its
// cut is probeCutNum/probeCutDen; a full frontier's pull tests nothing, and
// it always pulls. BenchmarkDirCutPair's arms are the measurement both point
// at.
const pushCut = 2

const probeCutNum, probeCutDen = 11, 10 // the unmasked non-full pull's cut

// Kernel is the accumulator pin of the multiply kernels. The grb layer always
// passes KernelAuto, which routes by statistics; the two pins are the test
// seam that holds the dense and hash accumulators to the same bits.
type Kernel int

const (
	// KernelAuto routes each row range (SpGEMM) or gather (SpMV) by its
	// work against the dense structure's width.
	KernelAuto Kernel = iota
	// KernelDense forces the dense SPA / dense gather view.
	KernelDense
	// KernelHash forces the open-addressing hash SPA / hash gather.
	KernelHash
)

// Dir is the direction pin of the matrix-vector products (Descriptor.Dir).
type Dir int

const (
	// DirAuto routes by the edges each kernel would touch (planDir).
	DirAuto Dir = iota
	// DirPush forces the push (scatter) kernel.
	DirPush
	// DirPull forces the pull (gather) kernel.
	DirPull
)

// Acc names the structure products accumulate into (SpGEMM) or are gathered
// through (pull SpMV).
type Acc uint8

const (
	// AccNone: the route has no such structure (push, or nothing ran).
	AccNone Acc = iota
	// AccDense is the O(width) SPA or the vector's dense view.
	AccDense
	// AccHash is the work-sized open-addressing table.
	AccHash
	// AccMixed: a matrix product whose row ranges took both.
	AccMixed
)

// Reason is the plan row that decided a route. The budget rows come last
// (Budget, and mergeRanges' "weightiest reason", rely on the order).
type Reason uint8

const (
	ReasonNone Reason = iota
	ReasonPin
	ReasonSparseFrontier
	ReasonDenseFrontier
	ReasonFullFrontier
	ReasonFewProbes
	ReasonHyperMask
	ReasonFewFlops
	ReasonDenseWork
	ReasonMaskFirst
	ReasonRangesSplit
	ReasonBudgetGather
	ReasonBudgetSPA
	ReasonBudgetPush
	ReasonBudgetMask
)

var reasonText = [...]string{
	ReasonNone:           "",
	ReasonPin:            "descriptor pin",
	ReasonSparseFrontier: "cut·products < rows + probes",
	ReasonDenseFrontier:  "cut·products >= rows + probes",
	ReasonFullFrontier:   "full frontier",
	ReasonFewProbes:      "gather inserts + lookups < n/2",
	ReasonHyperMask:      "mask inserts + probes < n/2",
	ReasonFewFlops:       "range flops < cols/2",
	ReasonDenseWork:      "work >= width/2",
	ReasonMaskFirst:      "mask nnz <= range flops",
	ReasonRangesSplit:    "row ranges routed separately",
	ReasonBudgetGather:   "budget refused dense gather",
	ReasonBudgetSPA:      "budget refused dense SPA",
	ReasonBudgetPush:     "budget refused push scatter",
	ReasonBudgetMask:     "budget refused mask bitmap",
}

// String is the event's route_reason.
func (r Reason) String() string { return reasonText[r] }

// Budget reports whether the memory budget, not the statistics or a pin,
// decided the route — the rows the kernels count as degradations.
func (r Reason) Budget() bool { return r >= ReasonBudgetGather }

// Route is one planned (and, read back through Exec.Route, executed) kernel
// route. Comparable, so tests assert whole routes with ==.
type Route struct {
	Push      bool // scatter the frontier (VxM scaffold) rather than gather rows
	Family    bool // a monomorphized family loop serves the dense branch
	Acc       Acc
	HashMask  bool // vector mask compiled to a hash predicate, not an O(n) bitmap
	MaskFirst bool // matrix product: the mask admits columns before the products, not after
	Reason    Reason
	// Workers is how many goroutines the kernel's widest parallel section
	// ran on (Exec.workers); the planner leaves it zero.
	Workers int
}

// MatVecLabel names a matrix-vector route for the kernel event.
func (r Route) MatVecLabel() string {
	label := "pull"
	if r.Push {
		label = "push"
	}
	return label + r.monoSuffix()
}

// ProductLabel names a matrix-product route for the kernel event: what the
// per-range statistics picked.
func (r Route) ProductLabel() string {
	label := "auto"
	if r.Acc != AccNone {
		label += [...]string{AccDense: "(dense)", AccHash: "(hash)", AccMixed: "(mixed)"}[r.Acc]
	}
	return label + r.monoSuffix()
}

func (r Route) monoSuffix() string {
	if r.Family {
		return "+mono"
	}
	return ""
}

// planIn is everything a plan row may look at. Each function documents the
// fields it reads; the rest stay zero.
type planIn struct {
	dir  Dir
	hint Kernel

	// work competes with width: the frontier's products against the rows
	// the pull walks plus its probes (direction), the hash gather's table
	// operations against the vector size (gather, see gatherWork), a row
	// range's flop bound against the output columns (accumulator), the
	// push's products against its output columns (accumulator and, with
	// maskNNZ, the mask predicate's table operations).
	work, width int
	probes      int  // direction: the stored entries of the rows the pull admits
	full        bool // direction: the frontier stores every entry

	masked   bool // planRange: a mask matrix is present; direction: a mask vector
	maskNNZ  int  // its entries; for planRange, those in the range's rows
	maskComp bool

	hasLoop bool // a family loop exists for (semiring, types)

	// Budget state, probed by the caller: the dense structure fits the
	// remaining budget; the hash alternative is strictly smaller.
	denseFits, hashSmaller bool
	// The same pair for the mask vector of a matrix-vector product, if any
	// (maskProbe): its bitmap fits beside that structure; its hash
	// predicate's table is strictly smaller.
	bitmapFits, maskHashSmaller bool
}

// belowCut is the dense-vs-hash comparison. The division form avoids
// overflow for huge flop counts.
func belowCut(work, width int) bool { return work < width/hashCut }

// planDir picks push or pull for a matrix-vector product by the edges each
// touches, priced the way the pull would run. Reads dir, full, masked, work
// (the frontier's products, Σ nnz(R(i,:)) over its entries: what the push
// scatters), width (the rows the pull walks: an admission test and a row read
// each, however few it admits) and probes (the stored entries of the rows it
// admits: a view lookup each).
//
//   - a pin wins;
//   - a full frontier pulls;
//   - a masked pull is pushed exactly when pushCut · products < rows + probes;
//   - an unmasked one when (probeCutNum/probeCutDen) · products < rows + probes.
func planDir(in planIn) Route {
	switch in.dir {
	case DirPush:
		return Route{Push: true, Reason: ReasonPin}
	case DirPull:
		return Route{Reason: ReasonPin}
	case DirAuto:
	}
	num, den := pushCut, 1
	switch {
	case in.full:
		return Route{Reason: ReasonFullFrontier}
	case !in.masked:
		num, den = probeCutNum, probeCutDen
	}
	if in.work < math.MaxInt/num && num*in.work < den*(in.width+in.probes) {
		return Route{Push: true, Reason: ReasonSparseFrontier}
	}
	return Route{Reason: ReasonDenseFrontier}
}

// dirIn is planDir's input for a frontier of the given products through a
// matrix of nnz entries whose pull orientation G has outDim rows: gptr is G's
// row pointers, or nil where G is not materialized — a row then counts
// nnz/outDim entries, the mean. The pull probes all of G unmasked and under a
// valued complemented mask (a bound: a stored false admits its row), G less
// the masked rows under a structural complemented one (Beamer's m_u), and the
// listed rows under a non-complemented one (stored falses included). The
// masked rows are counted only as far as the comparison needs.
func dirIn(dir Dir, products, nnz int, gptr []int, mask VMask, outDim int, full bool) planIn {
	in := planIn{dir: dir, work: products, width: outDim, probes: nnz, full: full, masked: mask.M != nil || mask.Complement}
	if dir != DirAuto || mask.M == nil || mask.Complement && !mask.Structural {
		return in
	}
	listed := func(cut int) int {
		if gptr == nil {
			return int(float64(mask.M.NNZ()) * float64(nnz) / float64(max(outDim, 1)))
		}
		return listedEntries(gptr, mask.M, 0, cut)
	}
	need := pushCut*products - outDim // push iff probes > need
	switch {
	case !mask.Complement:
		in.probes = listed(need + 1)
	case need >= 0:
		in.probes = max(nnz-listed(nnz-need), 0)
	}
	return in
}

// PlanDir is planDir over the operands the grb layer holds: the product of
// the frontier u with R — a's stored form, or its transpose when pushT —
// which the push scatters through R and the pull gathers over Rᵀ. It returns
// the frontier's products beside the route, for the kernel event: counted
// over R, or nnz(u) rows of R's mean length where R is not built.
func PlanDir[A, X any](dir Dir, a *CSR[A], pushT bool, u *Vec[X], mask VMask) (Route, int) {
	r, g := a, a.tr.Load()
	inDim, outDim := a.Rows, a.Cols
	if pushT {
		r, g = g, a
		inDim, outDim = outDim, inDim
	}
	products := int(float64(u.NNZ()) * float64(a.NNZ()) / float64(max(inDim, 1))) // all of R if u is full
	if r != nil && u.NNZ() < inDim {
		products = listedEntries(r.Ptr, u, 0, math.MaxInt)
	}
	var gptr []int
	if g != nil {
		gptr = g.Ptr
	}
	return planDir(dirIn(dir, products, a.NNZ(), gptr, mask, outDim, u.NNZ() == inDim)), products
}

// ChoosePush reports whether the adaptive rule sends the product to the push
// kernel when all it knows are sizes: planDir with no pin, read as if the
// matrix stored one entry per row of R, so that the frontier's products are
// its entries and G's entries are inDim.
func ChoosePush(nnzU, inDim int, mask VMask, outDim int) bool {
	return planDir(dirIn(DirAuto, nnzU, inDim, nil, mask, outDim, nnzU == inDim)).Push
}

// planAcc is the dense-vs-hash row shared by the three multiply scaffolds:
// pin, then statistics (few: the work is below the cut, and for the push the
// table is the smaller too), then the budget (a dense structure that no
// longer fits yields to a strictly smaller hash one — pinned dense included,
// since failing the operation serves nobody).
func planAcc(in planIn, few bool, fewWhy, refused Reason) (Acc, Reason) {
	why := ReasonDenseWork
	switch {
	case in.hint == KernelHash:
		return AccHash, ReasonPin
	case in.hint == KernelDense:
		why = ReasonPin
	case few:
		return AccHash, fewWhy
	}
	if !in.denseFits && in.hashSmaller {
		return AccHash, refused
	}
	return AccDense, why
}

// planPull plans the gather side of the pull product. Reads hint, hasLoop,
// work (gatherWork: what the hash table would be asked to do), width (vector
// size), denseFits, hashSmaller, bitmapFits, maskHashSmaller. A pull looks u
// up once per stored entry of every admitted row whatever nnz(u) is, so the
// hash gather is for hypersparse matrices and sparse non-complemented masks,
// not for sparse frontiers. A family loop reads the frontier's dense view, so
// it runs exactly when the gather is dense. The mask is probed once per row
// of G — n probes of a table against n reads of the bitmap's n bytes — so a
// hash predicate is never less work here, beside a hash gather either
// (BenchmarkPullGatherPair's masked row: 24.5 → 16.5 ms as a bitmap): it
// serves only where the budget refuses the bitmap and it is smaller.
func planPull(in planIn) Route {
	acc, why := planAcc(in, belowCut(in.work, in.width), ReasonFewProbes, ReasonBudgetGather)
	rt := Route{Family: in.hasLoop && acc == AccDense, Acc: acc, Reason: why}
	if in.maskHashSmaller && !in.bitmapFits {
		rt.HashMask, rt.Reason = true, ReasonBudgetMask
	}
	return rt
}

// planPush plans the push product. Reads hint, hasLoop, work (the frontier's
// products, listedWork), width (the output columns), denseFits, hashSmaller
// (the table of hashCapacity(products) slots against the SPA's value and
// mark per column, in bytes), maskNNZ, bitmapFits, maskHashSmaller.
//
// The accumulator is planAcc's row, whose statistics take the table only
// for products below width/hashCut in fewer bytes than the SPA; the table
// runs the closure loop. A family loop reads the mask as a bitmap; the hash
// predicate, and the closure loop with it, is for a table smaller than the
// bitmap whose nnz(m) inserts + one probe a product are fewer than
// width/hashCut, or a bitmap the budget refuses. Its reason replaces the
// accumulator's unless that is the budget's.
func planPush(in planIn) Route {
	acc, why := planAcc(in, belowCut(in.work, in.width) && in.hashSmaller, ReasonFewFlops, ReasonBudgetSPA)
	rt := Route{Push: true, Family: in.hasLoop && acc == AccDense, Acc: acc, Reason: why}
	maskWhy := ReasonNone
	switch {
	case !in.maskHashSmaller: // or no mask at all
	case !in.bitmapFits:
		maskWhy = ReasonBudgetMask
	case belowCut(in.maskNNZ+in.work, in.width):
		maskWhy = ReasonHyperMask
	}
	if maskWhy != ReasonNone {
		rt.Family, rt.HashMask = false, true
		if !why.Budget() {
			rt.Reason = maskWhy
		}
	}
	return rt
}

// planProduct is the call-level row of the matrix product. Reads hint,
// hasLoop. A family loop serves the call's dense ranges unless the hash
// accumulator is pinned: hash ranges are probe-bound, not multiply-bound, and
// always run the closure loop.
func planProduct(in planIn) Route {
	rt := Route{Family: in.hasLoop && in.hint != KernelHash}
	if in.hint != KernelAuto {
		rt.Reason = ReasonPin
	}
	return rt
}

// planRange picks one row range's accumulator and whether the mask drives the
// product. Reads hint, work (the range's flop bound), width (output columns),
// masked/maskNNZ/maskComp (the mask's entries in the range's rows),
// denseFits, hashSmaller. Mask-first needs the dense SPA's stamps and a mask
// that lists what it admits, and pays one stamp and one emit probe per mask
// entry, so it runs only while those do not exceed the products; otherwise
// the range forms every product and filters at emit time.
func planRange(in planIn) Route {
	acc, why := planAcc(in, belowCut(in.work, in.width), ReasonFewFlops, ReasonBudgetSPA)
	if acc == AccDense && in.masked && !in.maskComp && in.maskNNZ <= in.work {
		return Route{Acc: acc, MaskFirst: true, Reason: ReasonMaskFirst}
	}
	return Route{Acc: acc, Reason: why}
}

// scanEmit picks how a product-then-filter dense range puts a row's n pattern
// columns in order: sorting costs ~n·⌈log₂ n⌉, reading the width stamps in
// column order costs width, so the scan wins once the row is dense enough
// (n = 0 multiplies the wrapped-around 64 by zero).
func scanEmit(n, width int) bool {
	return n*bits.Len(uint(n-1)) > width
}

// mergeRanges folds the per-range routes of one matrix product into the
// call's: what the ranges that ran did (a family loop counts if any range ran
// it), and the weightiest reason (a budget refusal over statistics over
// nothing). Ranges that differ in accumulator or in mask-first are reported
// as split, not as whichever reason ranks higher.
func mergeRanges(call Route, ranges []Route) Route {
	ran, split := false, false
	for _, r := range ranges {
		switch {
		case r.Acc == AccNone:
			continue
		case !ran:
			ran = true
			call.Acc, call.MaskFirst, call.Family = r.Acc, r.MaskFirst, r.Family
		default:
			if call.Acc != r.Acc {
				call.Acc, split = AccMixed, true
			}
			if call.MaskFirst != r.MaskFirst {
				call.MaskFirst, split = false, true
			}
			call.Family = call.Family || r.Family
		}
		if r.Reason > call.Reason {
			call.Reason = r.Reason
		}
	}
	if split && !call.Reason.Budget() {
		call.Reason = ReasonRangesSplit
	}
	return call
}
