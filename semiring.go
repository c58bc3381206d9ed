package grb

import "github.com/grblas/grb/internal/sparse"

// Semiring is a GraphBLAS semiring: an additive monoid on the output domain
// Dout and a multiplicative binary operator Din1 × Din2 → Dout. It drives
// the matrix-product family (MxM, MxV, VxM).
type Semiring[Din1, Din2, Dout any] struct {
	Add Monoid[Dout]
	Mul BinaryOp[Din1, Din2, Dout]

	// semi tags the hot semirings built by this package's constructors so
	// the multiply scaffolds can plug in monomorphized loop bodies (see
	// DESIGN.md, "Monomorphized kernels & block formats"). Unexported on
	// purpose: a hand-assembled Semiring carries arbitrary closures the
	// kernels know nothing about, so it must stay SemiGeneric — tagging is
	// a constructor privilege, not a caller promise.
	semi sparse.Semi
}

// NewSemiring constructs a semiring (GrB_Semiring_new).
func NewSemiring[Din1, Din2, Dout any](add Monoid[Dout], mul BinaryOp[Din1, Din2, Dout]) (Semiring[Din1, Din2, Dout], error) {
	if add.Op == nil || mul == nil {
		return Semiring[Din1, Din2, Dout]{}, errf(NullPointer, "NewSemiring: nil operator")
	}
	return Semiring[Din1, Din2, Dout]{Add: add, Mul: mul}, nil
}

// PlusTimes is the conventional arithmetic semiring (+, ×, 0)
// (GrB_PLUS_TIMES_SEMIRING).
func PlusTimes[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: PlusMonoid[T](), Mul: Times[T], semi: sparse.SemiPlusTimes}
}

// MinPlus is the tropical shortest-path semiring (min, +, +∞)
// (GrB_MIN_PLUS_SEMIRING).
func MinPlus[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: MinMonoid[T](), Mul: Plus[T], semi: sparse.SemiMinPlus}
}

// MaxPlus is the (max, +, -∞) semiring (GrB_MAX_PLUS_SEMIRING), used for
// longest/critical-path style computations.
func MaxPlus[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: MaxMonoid[T](), Mul: Plus[T]}
}

// MinTimes is the (min, ×, +∞) semiring (GrB_MIN_TIMES_SEMIRING).
func MinTimes[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: MinMonoid[T](), Mul: Times[T]}
}

// MaxMin is the bottleneck semiring (max, min, -∞)
// (GrB_MAX_MIN_SEMIRING), used for widest-path computations.
func MaxMin[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: MaxMonoid[T](), Mul: Min[T]}
}

// MinMax is the (min, max, +∞) semiring (GrB_MIN_MAX_SEMIRING).
func MinMax[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: MinMonoid[T](), Mul: Max[T]}
}

// LOrLAnd is the boolean reachability semiring (∨, ∧, false)
// (GrB_LOR_LAND_SEMIRING).
func LOrLAnd() Semiring[bool, bool, bool] {
	return Semiring[bool, bool, bool]{Add: LOrMonoid(), Mul: LAnd, semi: sparse.SemiLorLand}
}

// LAndLOr is the (∧, ∨, true) semiring (GrB_LAND_LOR_SEMIRING).
func LAndLOr() Semiring[bool, bool, bool] {
	return Semiring[bool, bool, bool]{Add: LAndMonoid(), Mul: LOr}
}

// LXorLAnd is the (⊻, ∧, false) semiring (GrB_LXOR_LAND_SEMIRING).
func LXorLAnd() Semiring[bool, bool, bool] {
	return Semiring[bool, bool, bool]{Add: LXorMonoid(), Mul: LAnd}
}

// PlusPair is the structure-only counting semiring (+, pair, 0): the
// multiply returns 1 for every co-located pair, so the product counts
// pattern intersections. This is the semiring of Sandia-style triangle
// counting.
func PlusPair[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: PlusMonoid[T](), Mul: Oneb[T, T, T], semi: sparse.SemiPlusPair}
}

// MinFirst is the (min, first, +∞) semiring (GrB_MIN_FIRST_SEMIRING):
// the multiply passes the left operand through, so products select values
// carried by the left matrix/vector — the classic BFS-parent semiring.
func MinFirst[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: MinMonoid[T](), Mul: First[T, T]}
}

// MinSecond is the (min, second, +∞) semiring (GrB_MIN_SECOND_SEMIRING).
func MinSecond[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: MinMonoid[T](), Mul: Second[T, T]}
}

// MaxFirst is the (max, first, -∞) semiring (GrB_MAX_FIRST_SEMIRING).
func MaxFirst[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: MaxMonoid[T](), Mul: First[T, T]}
}

// MaxSecond is the (max, second, -∞) semiring (GrB_MAX_SECOND_SEMIRING).
func MaxSecond[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: MaxMonoid[T](), Mul: Second[T, T]}
}
