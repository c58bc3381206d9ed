package grb

import "github.com/grblas/grb/internal/sparse"

// Direction selects the traversal direction of the matrix-vector products
// (MxV, VxM). This is an extension in the spirit of direction-optimizing
// (push/pull) BFS: the default routes each product by frontier and mask
// density (the planner's direction rows in internal/sparse), and the pinned
// variants force one kernel — for benchmarking, differential testing, or
// traversals whose phase the caller knows better.
type Direction int

const (
	// DirAuto routes each product by the edges each kernel would touch.
	DirAuto = Direction(sparse.DirAuto)
	// DirPush forces the push kernel: scatter the stored frontier entries
	// through their matrix rows (SpMSpV-style; work ∝ frontier edges).
	DirPush = Direction(sparse.DirPush)
	// DirPull forces the pull kernel: gather along output positions
	// (masked SpMV; work ∝ unmasked rows).
	DirPull = Direction(sparse.DirPull)
)

// Descriptor modifies how a GraphBLAS operation treats its output, mask and
// inputs (GrB_Descriptor). A nil *Descriptor everywhere means default
// behaviour: merge into the output, value mask, untransposed inputs.
type Descriptor struct {
	// Replace clears output entries not written by the operation
	// (GrB_OUTP = GrB_REPLACE).
	Replace bool
	// Structure interprets the mask structurally: an entry's presence
	// counts, its stored value is ignored (GrB_MASK = GrB_STRUCTURE).
	Structure bool
	// Complement inverts the mask (GrB_MASK = GrB_COMP). May be combined
	// with Structure.
	Complement bool
	// Transpose0 transposes the first matrix input (GrB_INP0 = GrB_TRAN).
	// Under a memory limit the transpose, cached on the input's snapshot,
	// stays charged until the context is freed, even once the input
	// changes: run a loop that transposes an input it changes in a context
	// it frees each iteration.
	Transpose0 bool
	// Transpose1 transposes the second matrix input (GrB_INP1 = GrB_TRAN),
	// cached and charged as Transpose0's.
	Transpose1 bool
	// Dir selects the matrix-vector traversal direction (extension; see
	// Direction).
	Dir Direction
}

// Predefined descriptors mirroring the C API's GrB_DESC_* constants.
var (
	// DescT1 transposes the second input.
	DescT1 = &Descriptor{Transpose1: true}
	// DescT0 transposes the first input.
	DescT0 = &Descriptor{Transpose0: true}
	// DescT0T1 transposes both inputs.
	DescT0T1 = &Descriptor{Transpose0: true, Transpose1: true}
	// DescR replaces the output.
	DescR = &Descriptor{Replace: true}
	// DescC complements the mask.
	DescC = &Descriptor{Complement: true}
	// DescS uses the mask structurally.
	DescS = &Descriptor{Structure: true}
	// DescRC replaces the output and complements the mask.
	DescRC = &Descriptor{Replace: true, Complement: true}
	// DescRS replaces the output and uses the mask structurally.
	DescRS = &Descriptor{Replace: true, Structure: true}
	// DescRSC replaces the output with a complemented structural mask.
	DescRSC = &Descriptor{Replace: true, Structure: true, Complement: true}
	// DescSC uses a complemented structural mask.
	DescSC = &Descriptor{Structure: true, Complement: true}
	// DescPush pins matrix-vector products to the push (scatter) kernel.
	DescPush = &Descriptor{Dir: DirPush}
	// DescPull pins matrix-vector products to the pull (gather) kernel.
	DescPull = &Descriptor{Dir: DirPull}
)

// get normalizes a possibly-nil descriptor to a value.
func (d *Descriptor) get() Descriptor {
	if d == nil {
		return Descriptor{}
	}
	return *d
}
