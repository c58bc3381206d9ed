package sparse

// The route planner. Every branch between two kernel paths that depends on
// operand statistics or a Descriptor pin is a row of one of the four pure
// functions below — the direction of a matrix-vector product (planDir), the
// gather side of the pull scaffold (planPull), the scatter side of the push
// scaffold (planPush) and the accumulator of one SpGEMM row range
// (planProduct + planRange). They read plain numbers and booleans, allocate
// nothing, and return a comparable Route whose Reason says which row fired,
// so the whole routing policy is one table (TestPlan) and the kernel event
// can carry "why" without the kernels formatting anything.
//
// The two thresholds are constants: no caller ever used another value.

// hashCut is the dense-vs-hash cut: work (a range's flop bound, a frontier's
// or a mask's nnz) below width/hashCut takes the hash structure. 2 comes from
// the cost model: the dense structure costs O(width) to materialize plus ~1
// unit per unit of work; the hash one skips the O(width) term but pays ~3
// units per unit of work (hash, probe, re-probe at emit). Hash wins iff
// width > (3-1)·work. The margin also bounds the table: capacity ≤ 2·work <
// width, so the hash path never allocates more scratch than the dense one it
// replaced.
const hashCut = 2

// pushCut is the frontier-density cut: push when nnz(u) < inDim/pushCut. 16
// is the classic direction-optimizing BFS switch point (Beamer et al. report
// α ≈ 14 for edge-based estimates; with a vertex-count proxy 16 keeps push
// through the growing phase of a power-law traversal and hands dense
// frontiers to pull).
const pushCut = 16

// Kernel is the accumulator pin of the multiply kernels (Descriptor.AxB).
// The zero value routes by statistics.
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
	// DirAuto routes by frontier and mask density.
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
	ReasonSparseMask
	ReasonSparseFrontier
	ReasonDenseFrontier
	ReasonHyperFrontier
	ReasonHyperMask
	ReasonFewFlops
	ReasonDenseWork
	ReasonRangesSplit
	ReasonBudgetGather
	ReasonBudgetSPA
	ReasonBudgetPush
)

var reasonText = [...]string{
	ReasonNone:           "",
	ReasonPin:            "descriptor pin",
	ReasonSparseMask:     "mask nnz < n/16",
	ReasonSparseFrontier: "frontier nnz < n/16",
	ReasonDenseFrontier:  "frontier nnz >= n/16",
	ReasonHyperFrontier:  "frontier nnz < n/2",
	ReasonHyperMask:      "mask nnz < n/2",
	ReasonFewFlops:       "range flops < cols/2",
	ReasonDenseWork:      "work >= width/2",
	ReasonRangesSplit:    "row ranges routed separately",
	ReasonBudgetGather:   "budget refused dense gather",
	ReasonBudgetSPA:      "budget refused dense SPA",
	ReasonBudgetPush:     "budget refused push scatter",
}

// String is the event's route_reason.
func (r Reason) String() string { return reasonText[r] }

// Budget reports whether the memory budget, not the statistics or a pin,
// decided the route — the rows the kernels count as degradations.
func (r Reason) Budget() bool { return r >= ReasonBudgetGather }

// Route is one planned (and, read back through Exec.Route, executed) kernel
// route. Comparable, so tests assert whole routes with ==.
type Route struct {
	Push     bool // scatter the frontier (VxM scaffold) rather than gather rows
	Family   bool // a monomorphized family loop serves the dense branch
	Acc      Acc
	HashMask bool // vector mask compiled to a hash predicate, not an O(n) bitmap
	Reason   Reason
}

// MatVecLabel names a matrix-vector route for the kernel event.
func (r Route) MatVecLabel() string {
	label := "pull"
	if r.Push {
		label = "push"
	}
	return label + r.monoSuffix()
}

// ProductLabel names a matrix-product route for the kernel event: the pinned
// accumulator, or what the per-range statistics picked.
func (r Route) ProductLabel(hint Kernel) string {
	label := [...]string{KernelAuto: "auto", KernelDense: "dense", KernelHash: "hash"}[hint]
	if hint == KernelAuto && r.Acc != AccNone {
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
	spec Spec

	// work competes with width: frontier nnz against the input dimension
	// (direction, gather), a row range's flop bound against the output
	// columns (accumulator).
	work, width int

	masked   bool // a mask vector is present
	maskNNZ  int
	maskComp bool
	outDim   int // the dimension the mask guards

	hasLoop bool // a family loop exists for (semiring, types) and Spec allows it

	// Budget state, probed by the caller: the dense structure fits the
	// remaining budget; the hash alternative is strictly smaller.
	denseFits, hashSmaller bool
}

// belowCut is the dense-vs-hash comparison. The division form avoids
// overflow for huge flop counts.
func belowCut(work, width int) bool { return work < width/hashCut }

// planDir picks push or pull for a matrix-vector product. Reads dir, work
// (frontier nnz), width (input dimension), masked/maskNNZ/maskComp, outDim.
//
//   - a pin wins;
//   - a sparse non-complemented mask admits few outputs and the pull kernel
//     skips every other row before doing any work: pull (the masked-pull
//     traversal of §II of the paper);
//   - otherwise push exactly when the frontier is sparse: its scatter
//     touches only the frontier's edges, pull must gather every admitted row.
func planDir(in planIn) Route {
	switch in.dir {
	case DirPush:
		return Route{Push: true, Reason: ReasonPin}
	case DirPull:
		return Route{Reason: ReasonPin}
	case DirAuto:
	}
	if in.masked && !in.maskComp && in.maskNNZ < in.outDim/pushCut {
		return Route{Reason: ReasonSparseMask}
	}
	if in.work < in.width/pushCut {
		return Route{Push: true, Reason: ReasonSparseFrontier}
	}
	return Route{Reason: ReasonDenseFrontier}
}

// PlanDir is planDir over the operands the grb layer holds.
func PlanDir(dir Dir, nnzU, inDim int, mask VMask, outDim int) Route {
	in := planIn{dir: dir, work: nnzU, width: inDim, maskComp: mask.Complement, outDim: outDim}
	if mask.M != nil {
		in.masked, in.maskNNZ = true, mask.M.NNZ()
	}
	return planDir(in)
}

// ChoosePush reports whether the adaptive rule sends the product to the push
// kernel (planDir with no pin).
func ChoosePush(nnzU, inDim int, mask VMask, outDim int) bool {
	return PlanDir(DirAuto, nnzU, inDim, mask, outDim).Push
}

// planAcc is the dense-vs-hash row shared by the pull gather and the SpGEMM
// range: pin, then statistics, then the budget (a dense structure that no
// longer fits yields to a strictly smaller hash one — pinned dense included,
// since failing the operation serves nobody).
func planAcc(in planIn, few, refused Reason) (Acc, Reason) {
	why := ReasonDenseWork
	switch {
	case in.hint == KernelHash:
		return AccHash, ReasonPin
	case in.hint == KernelDense:
		why = ReasonPin
	case belowCut(in.work, in.width):
		return AccHash, few
	}
	if !in.denseFits && in.hashSmaller {
		return AccHash, refused
	}
	return AccDense, why
}

// planPull plans the gather side of the pull product. Reads hint, spec,
// hasLoop, work (frontier nnz), width (vector size), masked/maskNNZ, outDim,
// denseFits, hashSmaller. A family loop reads the frontier's dense view, so
// it runs exactly when the gather is dense; SpecMono with a loop available
// keeps the view even for a hypersparse frontier.
func planPull(in planIn) Route {
	if in.hasLoop && in.spec == SpecMono && in.hint == KernelAuto {
		in.hint = KernelDense
	}
	acc, why := planAcc(in, ReasonHyperFrontier, ReasonBudgetGather)
	return Route{
		Family:   in.hasLoop && acc == AccDense,
		Acc:      acc,
		HashMask: in.masked && belowCut(in.maskNNZ, in.outDim),
		Reason:   why,
	}
}

// planPush plans the scatter side of the push product. Reads spec, hasLoop,
// masked/maskNNZ, outDim. A family loop indexes the mask as a bitmap; a
// hypersparse mask over a wide output is the hash-predicate regime (compiling
// it to O(cols) would cost more than the lookups save), so it keeps the
// closure loop unless SpecMono pins the family.
func planPush(in planIn) Route {
	rt := Route{Push: true, Family: in.hasLoop}
	if !in.masked || !belowCut(in.maskNNZ, in.outDim) {
		return rt
	}
	if in.hasLoop && in.spec == SpecMono {
		rt.Reason = ReasonPin
		return rt
	}
	rt.Family, rt.HashMask, rt.Reason = false, true, ReasonHyperMask
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

// planRange picks one row range's accumulator. Reads hint, work (the range's
// flop bound), width (output columns), denseFits, hashSmaller.
func planRange(in planIn) Route {
	acc, why := planAcc(in, ReasonFewFlops, ReasonBudgetSPA)
	return Route{Acc: acc, Reason: why}
}

// mergeRanges folds the per-range routes of one matrix product into the
// call's: the accumulators seen, and the weightiest reason (a budget refusal
// over statistics over nothing).
func mergeRanges(call Route, ranges []Route) Route {
	for _, r := range ranges {
		switch {
		case r.Acc == AccNone:
			continue
		case call.Acc == AccNone:
			call.Acc = r.Acc
		case call.Acc != r.Acc:
			call.Acc = AccMixed
		}
		if r.Reason > call.Reason {
			call.Reason = r.Reason
		}
	}
	if call.Acc == AccMixed && !call.Reason.Budget() {
		call.Reason = ReasonRangesSplit
	}
	return call
}
