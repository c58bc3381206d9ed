package grb

import "testing"

// The algebraic identities these tests drew random operands for — (Aᵀ)ᵀ = A,
// A·I = A, a mask and its complement partition C, a select and its
// complement partition A, build ∘ extract = id, A ⊕ B = B ⊕ A, reduce = the
// tuples' sum, extract ∘ assign = id, serialize after any operation — follow
// from the definitions the program generator (progen_test.go) holds every
// step to, so they are configurations of it.
func TestPropTransposeInvolution(t *testing.T) { matrixKit(t, kitInt, blocking, gTranspose) }
func TestPropMxMIdentity(t *testing.T)         { matrixKit(t, kitPlusTimes, blocking, gMxM) }
func TestPropMaskComplementPartition(t *testing.T) {
	matrixKit(t, kitBool, blocking, gMxM, gEWiseAddM, gApplyM, gAssignM)
}
func TestPropSelectPartition(t *testing.T)       { matrixKit(t, kitMinPlus, blocking, gSelectM) }
func TestPropBuildExtractRoundTrip(t *testing.T) { matrixKit(t, kitInt, serial, gBuildM, gExtractM) }
func TestPropEWiseAddCommutative(t *testing.T)   { matrixKit(t, kitPlusPair, blocking, gEWiseAddM) }
func TestPropReduceAgreesWithTupleSum(t *testing.T) {
	matrixKit(t, kitPlusTimes, serial, gReduce, gReduceRows, gReduceM)
}
func TestPropExtractAssignInverse(t *testing.T) { matrixKit(t, kitInt, pinned, gExtractM, gAssignM) }
func TestPropSerializeAfterOps(t *testing.T)    { matrixKit(t, kitMinPlus, serial, matrixOps...) }

func TestAsMaskHelpers(t *testing.T) {
	setMode(t, Blocking)
	m := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 1}, []int{0, 5})
	mask, err := AsMask(m)
	if err != nil {
		t.Fatal(err)
	}
	// value-mask semantics: 0 maps to false, 5 to true
	matrixEquals(t, mask, []Index{0, 1}, []Index{0, 1}, []bool{false, true})
	mask2, err := AsMaskFunc(m, func(v int) bool { return v == 0 })
	if err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, mask2, []Index{0, 1}, []Index{0, 1}, []bool{true, false})
	v := mustVector(t, 3, []Index{0, 2}, []float64{0, 2.5})
	vm, err := AsVectorMask(v)
	if err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, vm, []Index{0, 2}, []bool{false, true})
	vm2, err := AsVectorMaskFunc(v, func(float64) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, vm2, []Index{0, 2}, []bool{true, true})
}
