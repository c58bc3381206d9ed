// Package grb is a Go implementation of the GraphBLAS 2.0 specification —
// graph algorithms in the language of sparse linear algebra — as introduced
// in "Introduction to GraphBLAS 2.0" (Brock, Buluç, Mattson, McMillan,
// Moreira; IPDPSW 2021). It provides the opaque Matrix, Vector, Scalar and
// Context objects, the full operation set (mxm, mxv, vxm, eWiseAdd,
// eWiseMult, apply, select, extract, assign, reduce, transpose, kronecker),
// blocking and nonblocking execution with sequences and completion (§III),
// hierarchical execution contexts (§IV), the split API/execution error model
// with deferred reporting (§V), GrB_Scalar semantics (§VI), import/export
// and serialization (§VII), and index-unary operators (§VIII).
//
// The Go binding uses generics in place of the C API's type-suffixed method
// families: Matrix[T], Vector[T] and Scalar[T] are strongly typed, and
// operators are ordinary function values, so the "user-defined function"
// machinery of the C spec is the natural case here.
package grb

import (
	"reflect"

	"github.com/grblas/grb/internal/sparse"
)

// Index is the GraphBLAS index type (GrB_Index). The C specification uses
// uint64; the Go binding uses int for ergonomic slice indexing and reports
// negative values as GrB_INVALID_INDEX.
type Index = int

// All is the nil index slice, meaning "all indices" (GrB_ALL) in extract and
// assign operations.
var All []Index = nil

// UnaryOp is a GraphBLAS unary operator f: Din → Dout.
type UnaryOp[Din, Dout any] func(Din) Dout

// BinaryOp is a GraphBLAS binary operator f: Din1 × Din2 → Dout.
type BinaryOp[Din1, Din2, Dout any] func(Din1, Din2) Dout

// Signed groups Go's built-in signed integer types.
type Signed interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64
}

// Unsigned groups Go's built-in unsigned integer types.
type Unsigned interface {
	~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Integer groups all built-in integer types.
type Integer interface{ Signed | Unsigned }

// Float groups the built-in floating-point types.
type Float interface{ ~float32 | ~float64 }

// Number groups the GraphBLAS predefined numeric domains.
type Number interface{ Integer | Float }

// Ordered groups domains with a total order, usable with Min/Max and the
// comparison operators.
type Ordered interface{ Number | ~string }

// ---------------------------------------------------------------------------
// Predefined unary operators (GrB_IDENTITY, GrB_AINV, GrB_ABS, ...).
// Each is an ordinary generic function so grb.Abs[float64] is directly
// usable as a UnaryOp[float64, float64].
// ---------------------------------------------------------------------------

// Identity returns its argument unchanged (GrB_IDENTITY).
func Identity[T any](x T) T { return x }

// AInv returns the additive inverse -x (GrB_AINV).
func AInv[T Number](x T) T { return -x }

// Abs returns the absolute value (GrB_ABS).
func Abs[T Number](x T) T {
	if x < 0 {
		return -x
	}
	return x
}

// MInv returns the multiplicative inverse 1/x (GrB_MINV).
func MInv[T Float](x T) T { return 1 / x }

// LNot returns logical negation (GrB_LNOT).
func LNot(x bool) bool { return !x }

// BNot returns bitwise complement (GrB_BNOT).
func BNot[T Integer](x T) T { return ^x }

// One returns the multiplicative identity regardless of input (GxB_ONE),
// useful for converting patterns to unweighted values.
func One[T Number](T) T { return 1 }

// ---------------------------------------------------------------------------
// Predefined binary operators (GrB_PLUS, GrB_TIMES, GrB_MIN, ...).
// ---------------------------------------------------------------------------

// First returns its first argument (GrB_FIRST).
func First[T, U any](x T, _ U) T { return x }

// Second returns its second argument (GrB_SECOND).
func Second[T, U any](_ T, y U) U { return y }

// Oneb returns 1 regardless of inputs (GrB_ONEB, the "pair" operator used by
// structure-only semirings such as plus_pair triangle counting).
func Oneb[T, U any, V Number](T, U) V { return 1 }

// Plus returns x + y (GrB_PLUS).
func Plus[T Number](x, y T) T { return x + y }

// Minus returns x - y (GrB_MINUS).
func Minus[T Number](x, y T) T { return x - y }

// Times returns x * y (GrB_TIMES).
func Times[T Number](x, y T) T { return x * y }

// Div returns x / y (GrB_DIV). Integer division by zero panics, as in Go.
func Div[T Number](x, y T) T { return x / y }

// Min returns the smaller argument (GrB_MIN).
func Min[T Ordered](x, y T) T {
	if y < x {
		return y
	}
	return x
}

// Max returns the larger argument (GrB_MAX).
func Max[T Ordered](x, y T) T {
	if y > x {
		return y
	}
	return x
}

// LAnd returns logical conjunction (GrB_LAND).
func LAnd(x, y bool) bool { return x && y }

// LOr returns logical disjunction (GrB_LOR).
func LOr(x, y bool) bool { return x || y }

// LXor returns logical exclusive-or (GrB_LXOR).
func LXor(x, y bool) bool { return x != y }

// LXnor returns logical equivalence (GrB_LXNOR).
func LXnor(x, y bool) bool { return x == y }

// BAnd returns bitwise conjunction (GrB_BAND).
func BAnd[T Integer](x, y T) T { return x & y }

// BOr returns bitwise disjunction (GrB_BOR).
func BOr[T Integer](x, y T) T { return x | y }

// BXor returns bitwise exclusive-or (GrB_BXOR).
func BXor[T Integer](x, y T) T { return x ^ y }

// binTags maps the predefined operator instantiations the element-wise
// kernels and the pull's accumulate run as arithmetic (sparse.Bin) by the
// code their function values point at. A func value whose code is that of
// Times[float64] is Times[float64]: a closure, a method value or a wrapper
// has code of its own, and Times over a named type is another instantiation.
var binTags = map[uintptr]sparse.Bin{
	reflect.ValueOf(Times[float64]).Pointer():       sparse.BinTimes,
	reflect.ValueOf(First[float64, bool]).Pointer(): sparse.BinFirst,
	reflect.ValueOf(Plus[float64]).Pointer():        sparse.BinPlus,
}

// binOf is op's tag: the predefined instantiation it is, or BinGeneric.
func binOf[A, B, C any](op BinaryOp[A, B, C]) sparse.Bin {
	return binTags[reflect.ValueOf(op).Pointer()]
}

// selectTags maps the positional select operators MatrixSelect runs as row
// cuts (sparse.SelectCutM), at bool and float64, by code identity as binTags
// does. Each key is written out: inside generic code TriL[D] is a closure
// over a dictionary, whose code is never TriL[bool]'s.
var selectTags = map[uintptr]sparse.Cut{
	reflect.ValueOf(TriL[bool]).Pointer():       sparse.CutTriL,
	reflect.ValueOf(TriU[bool]).Pointer():       sparse.CutTriU,
	reflect.ValueOf(Diag[bool]).Pointer():       sparse.CutDiag,
	reflect.ValueOf(Offdiag[bool]).Pointer():    sparse.CutOffdiag,
	reflect.ValueOf(RowLE[bool]).Pointer():      sparse.CutRowLE,
	reflect.ValueOf(RowGT[bool]).Pointer():      sparse.CutRowGT,
	reflect.ValueOf(ColLE[bool]).Pointer():      sparse.CutColLE,
	reflect.ValueOf(ColGT[bool]).Pointer():      sparse.CutColGT,
	reflect.ValueOf(TriL[float64]).Pointer():    sparse.CutTriL,
	reflect.ValueOf(TriU[float64]).Pointer():    sparse.CutTriU,
	reflect.ValueOf(Diag[float64]).Pointer():    sparse.CutDiag,
	reflect.ValueOf(Offdiag[float64]).Pointer(): sparse.CutOffdiag,
	reflect.ValueOf(RowLE[float64]).Pointer():   sparse.CutRowLE,
	reflect.ValueOf(RowGT[float64]).Pointer():   sparse.CutRowGT,
	reflect.ValueOf(ColLE[float64]).Pointer():   sparse.CutColLE,
	reflect.ValueOf(ColGT[float64]).Pointer():   sparse.CutColGT,
}

// cutOf is op's tag: the positional instantiation it is, or CutNone.
func cutOf[DA, DS any](op IndexUnaryOp[DA, DS, bool]) sparse.Cut {
	return selectTags[reflect.ValueOf(op).Pointer()]
}

// Eq returns x == y (GrB_EQ).
func Eq[T comparable](x, y T) bool { return x == y }

// Ne returns x != y (GrB_NE).
func Ne[T comparable](x, y T) bool { return x != y }

// Lt returns x < y (GrB_LT).
func Lt[T Ordered](x, y T) bool { return x < y }

// Le returns x <= y (GrB_LE).
func Le[T Ordered](x, y T) bool { return x <= y }

// Gt returns x > y (GrB_GT).
func Gt[T Ordered](x, y T) bool { return x > y }

// Ge returns x >= y (GrB_GE).
func Ge[T Ordered](x, y T) bool { return x >= y }
