package grb

import (
	"math"

	"github.com/grblas/grb/internal/sparse"
)

// Monoid is a GraphBLAS monoid: an associative binary operator on a single
// domain together with its identity value. GraphBLAS 2.0 (Table II) also
// introduces constructing monoids from a GrB_Scalar identity; in the Go
// binding NewMonoidScalar provides that variant.
type Monoid[D any] struct {
	Op       BinaryOp[D, D, D]
	Identity D

	// mon tags the monoids the reductions have a family loop for; like
	// Semiring.semi, only this package's constructors set it.
	mon sparse.Mon
}

// NewMonoid constructs a monoid from an associative operator and its
// identity (GrB_Monoid_new).
func NewMonoid[D any](op BinaryOp[D, D, D], identity D) (Monoid[D], error) {
	if op == nil {
		return Monoid[D]{}, errf(NullPointer, "NewMonoid: nil operator")
	}
	return Monoid[D]{Op: op, Identity: identity}, nil
}

// NewMonoidScalar constructs a monoid taking the identity from a GrB_Scalar
// (the Table II variant GrB_Monoid_new(GrB_Monoid*, GrB_BinaryOp,
// GrB_Scalar)). An empty scalar is an error (GrB_EMPTY_OBJECT).
func NewMonoidScalar[D any](op BinaryOp[D, D, D], identity *Scalar[D]) (Monoid[D], error) {
	if op == nil || identity == nil {
		return Monoid[D]{}, errf(NullPointer, "NewMonoidScalar: nil argument")
	}
	v, ok, err := identity.ExtractElement()
	if err != nil {
		return Monoid[D]{}, err
	}
	if !ok {
		return Monoid[D]{}, errf(EmptyObject, "NewMonoidScalar: empty identity scalar")
	}
	return Monoid[D]{Op: op, Identity: v}, nil
}

// PlusMonoid is the (+, 0) monoid (GrB_PLUS_MONOID).
func PlusMonoid[T Number]() Monoid[T] { return Monoid[T]{Op: Plus[T], mon: sparse.MonPlus} }

// TimesMonoid is the (*, 1) monoid (GrB_TIMES_MONOID).
func TimesMonoid[T Number]() Monoid[T] { return Monoid[T]{Op: Times[T], Identity: 1} }

// MinMonoid is the (min, +∞) monoid (GrB_MIN_MONOID); the identity is the
// maximum representable value of T.
func MinMonoid[T Number]() Monoid[T] { return Monoid[T]{Op: Min[T], Identity: maxValue[T]()} }

// MaxMonoid is the (max, -∞) monoid (GrB_MAX_MONOID); the identity is the
// minimum representable value of T.
func MaxMonoid[T Number]() Monoid[T] { return Monoid[T]{Op: Max[T], Identity: minValue[T]()} }

// LAndMonoid is the (&&, true) monoid (GrB_LAND_MONOID).
func LAndMonoid() Monoid[bool] { return Monoid[bool]{Op: LAnd, Identity: true} }

// LOrMonoid is the (||, false) monoid (GrB_LOR_MONOID).
func LOrMonoid() Monoid[bool] { return Monoid[bool]{Op: LOr, Identity: false} }

// LXorMonoid is the (xor, false) monoid (GrB_LXOR_MONOID).
func LXorMonoid() Monoid[bool] { return Monoid[bool]{Op: LXor, Identity: false} }

// LXnorMonoid is the (xnor, true) monoid (GrB_LXNOR_MONOID).
func LXnorMonoid() Monoid[bool] { return Monoid[bool]{Op: LXnor, Identity: true} }

// isFloat reports whether the numeric domain T is a floating-point type,
// detected by whether the value 0.5 survives conversion.
func isFloat[T Number]() bool {
	h := 0.5
	return T(h) != T(0)
}

// maxValue returns the maximum representable value of a numeric domain —
// the identity of the min monoid (+∞ for floats).
func maxValue[T Number]() T {
	if isFloat[T]() {
		inf := math.Inf(1)
		return T(inf)
	}
	var zero T
	if zero-1 > zero {
		return zero - 1 // unsigned: wraps to all ones
	}
	// Signed: double until the sign bit is reached (wrap-around is defined
	// in Go), landing on the minimum; the maximum is its complement.
	v := T(1)
	for v > 0 {
		v *= 2
	}
	return -(v + 1)
}

// minValue returns the minimum representable value of a numeric domain —
// the identity of the max monoid (-∞ for floats).
func minValue[T Number]() T {
	if isFloat[T]() {
		inf := math.Inf(-1)
		return T(inf)
	}
	var zero T
	if zero-1 > zero {
		return zero // unsigned
	}
	v := T(1)
	for v > 0 {
		v *= 2
	}
	return v
}
