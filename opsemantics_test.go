package grb

import "testing"

// MxM's values — every mask reading, accumulator, replace and transpose
// flag over the tagged semiring and its closure twin — are the program
// generator's (progen_test.go); its errors are here.
func TestMxMFullPipeline(t *testing.T) {
	matrixKit(t, kitInt, blocking, gMxM, gEWiseAddM, gApplyM, gSelectM, gReduceM)
}
func TestMxMTransposes(t *testing.T) { matrixKit(t, kitPlusTimes, blocking, gMxM, gTranspose) }

func TestMxMDimensionErrors(t *testing.T) {
	setMode(t, Blocking)
	a := mustMatrix(t, 2, 3, nil, nil, []int(nil))
	b := mustMatrix(t, 2, 3, nil, nil, []int(nil))
	c := mustMatrix(t, 2, 3, nil, nil, []int(nil))
	wantCode(t, MxM(c, nil, nil, PlusTimes[int](), a, b, nil), DimensionMismatch)
	// Transposing B fixes the inner dimension but the output must be 2x2.
	wantCode(t, MxM(c, nil, nil, PlusTimes[int](), a, b, DescT1), DimensionMismatch)
	c22 := mustMatrix(t, 2, 2, nil, nil, []int(nil))
	if err := MxM(c22, nil, nil, PlusTimes[int](), a, b, DescT1); err != nil {
		t.Fatal(err)
	}
	// Mask shape must match the output.
	badMask := ck1(NewMatrix[bool](3, 2))
	wantCode(t, MxM(c22, badMask, nil, PlusTimes[int](), a, b, DescT1), DimensionMismatch)
	// Nil semiring operators.
	wantCode(t, MxM(c22, nil, nil, Semiring[int, int, int]{}, a, b, DescT1), NullPointer)
}
