package sparse

import "math"

// Family loops. The three multiply scaffolds (SpGEMMSemiEx, SpMVSemiEx,
// VxMSemiEx) evaluate the semiring through two closure calls per product —
// exactly the per-scalar function-call overhead §II of the paper motivates
// eliminating. For the handful of semirings that dominate graph workloads
// the grb layer tags the operation with a Semi constant, and the scaffold
// swaps its closure loop body for a hand-monomorphized one (monokernels.go)
// whose multiply-add compiles to direct arithmetic. Everything around the
// loop body — partitioning, budget charges, masks, stitching — is the
// scaffold's own and runs once for both. The reductions (ReduceRows,
// ReduceAll, ReduceVec) do the same for a monoid tagged with a Mon: the
// family loop is `acc += x` where the closure loop is acc = add(acc, x); the
// element-wise kernels and the pull's accumulate, for a Bin-tagged operator.
//
// Equivalence discipline: every family loop replicates the closure loop's
// product visit order and mask admission points and yields what its
// first-assign-then-add accumulation yields (monokernels.go says how), so the
// differential battery (mono_differential_test.go) compares the two bit for
// bit even on float64, signed zeros and NaNs included.

// Semi tags the hot semirings the family-loop tables cover. The grb-layer
// constructors (PlusTimes, MinPlus, LOrLAnd, PlusPair) set the tag;
// hand-assembled Semiring values stay SemiGeneric and always take the
// closure loops. All four families have commutative multiplies, so the
// push/pull orientation flip in the grb layer's matvec is transparent to
// them.
type Semi int

const (
	// SemiGeneric is an untagged semiring: closure loops only.
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

	numSemi
)

// String names the tag for test output.
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

// Mon tags the predefined monoids as Semi tags semirings: PlusMonoid sets
// it, and NewMonoid or a Monoid literal stays MonGeneric.
type Mon int

const (
	// MonGeneric is an untagged monoid: closure loops only.
	MonGeneric Mon = iota
	// MonPlus is (+, 0) over int64/float64.
	MonPlus

	numMon
)

// Bin tags the predefined binary operators EWiseMultV, EWiseAddV and
// SpMVAccumEx's accumulate have a family loop for: the grb layer recognises
// them by code identity (BinaryOp is a func type) and passes the tag beside
// the function.
type Bin int

const (
	BinGeneric Bin = iota // an unrecognised operator: closure loops only
	BinTimes              // x × y over float64
	BinFirst              // x, the first operand, over (float64, bool)
	BinPlus               // x + y over float64

	numBin
)

// Spec is the second parameter of SpGEMMSemiEx, SpMVSemiEx and VxMSemiEx,
// and none of them reads it: the semiring tag alone decides whether a family
// loop runs. It stays because benchmark/kernel.go, a module of its own, calls
// those kernels with SpecAuto.
type Spec int

// SpecAuto is the only Spec.
const SpecAuto Spec = 0

// monoArith constrains the arithmetic hot types. int64 and float64 have
// distinct gcshapes, so loops instantiated over this constraint compile to
// direct integer/float instructions rather than dictionary-indirect calls.
type monoArith interface {
	~int64 | ~float64
}

// The loop tables: per family, the instantiated loop bodies of each hot
// element type, one table per scaffold.
var (
	spgemmLoops = [numSemi][]any{
		SemiPlusTimes: {spgemmRowPlusTimes[int64], spgemmRowPlusTimes[float64]},
		SemiMinPlus:   {spgemmRowMinPlus[int64], spgemmRowMinPlus[float64]},
		SemiLorLand:   {spgemmRowLorLand},
		SemiPlusPair:  {spgemmRowPlusPair[int64], spgemmRowPlusPair[float64]},
	}
	spmvLoops = [numSemi][]any{
		SemiPlusTimes: {spmvRowsPlusTimes[int64], spmvRowsPlusTimes[float64]},
		SemiMinPlus:   {spmvRowsMinPlus[int64], spmvRowsMinPlus[float64]},
		SemiLorLand:   {spmvRowsLorLand},
		SemiPlusPair:  {spmvRowsPlusPair[int64], spmvRowsPlusPair[float64]},
	}
	vxmLoops = [numSemi][]any{
		SemiPlusTimes: {vxmScatterPlusTimes[int64], vxmScatterPlusTimes[float64]},
		SemiMinPlus:   {vxmScatterMinPlus[int64], vxmScatterMinPlus[float64]},
		SemiLorLand:   {vxmScatterLorLand},
		SemiPlusPair:  {vxmScatterPlusPair[int64], vxmScatterPlusPair[float64]},
	}
	reduceLoops = [numMon][]any{
		MonPlus: {sumPlus[int64], sumPlus[float64]},
	}
	binLoops = [numBin][]any{
		BinTimes: {ewArith[float64]},
		BinFirst: {ewFirst[float64]},
		BinPlus:  {ewArith[float64]},
	}
)

// spaIdentity is what a dense SpGEMM range's SPA holds between rows: semi's
// additive identity over C where the family's row loop folds its first
// product like the rest, the zero value — which no first-assigning loop
// reads — elsewhere. Over float64 the identity of + is -0.0: (-0.0) + p is p
// bit for bit for every p, and (+0.0) + (-0.0) is not -0.0.
func spaIdentity[C any](semi Semi) (id C) {
	if f, ok := any(&id).(*float64); ok && (semi == SemiPlusTimes || semi == SemiPlusPair) {
		*f = math.Copysign(0, -1)
	}
	return id
}

// familyLoop resolves (tag, the scaffold's operand types) to a loop body,
// or nil. F is the scaffold's own loop type written over its type
// parameters, e.g. func(*CSR[A], *CSR[B], []C, []int, int, []int, int) []int;
// an entry matches iff its instantiated type is identical to F, i.e. iff
// every operand type is exactly the entry's hot type. A named element type
// over a hot underlying type (type Score float64) therefore matches nothing
// and stays on the closure loop, which is the only loop that may call its
// operators.
func familyLoop[F any, K Semi | Mon | Bin](table [][]any, tag K) (loop F) {
	for _, entry := range table[tag] {
		if f, ok := entry.(F); ok {
			return f
		}
	}
	return loop
}
