package sparse

import "testing"

// The matrix kernels' values against an oracle — SpGEMM masked and not,
// the element-wise kernels, MaskApplyM, transpose, the reductions, Kron,
// ExtractM, AssignM and AssignScalarM with repeated targets, select and
// apply — are the program generator's matrix steps (progen_test.go); each of
// these names runs it restricted to the steps it covered.
func TestSpGEMMAgainstDense(t *testing.T)   { matrixCorpus(t, sGEMM) }
func TestSpGEMMMasked(t *testing.T)         { runConfig(t, config{kinds: sGEMM, axis: axMasked}) }
func TestEWiseKernels(t *testing.T)         { matrixCorpus(t, sEWiseM|sEWise) }
func TestMaskApplyMSemantics(t *testing.T)  { matrixCorpus(t, sEWiseM|sWriteBack) }
func TestTransposeInvolution(t *testing.T)  { matrixCorpus(t, sTranspose) }
func TestReduceKernels(t *testing.T)        { matrixCorpus(t, sTranspose|sReduce) }
func TestKronSmall(t *testing.T)            { matrixCorpus(t, sKron) }
func TestExtractMAgainstDense(t *testing.T) { matrixCorpus(t, sExtractM) }
func TestAssignMAgainstDense(t *testing.T)  { matrixCorpus(t, sAssignM) }
func TestAssignScalarMAgainstDense(t *testing.T) {
	runConfig(t, config{kinds: sAssignM, kits: kPI | kLL}) // the int64 and boolean domains
}
func TestSelectAndApplyKernels(t *testing.T) { matrixCorpus(t, sApplyM|sSelectM) }

// TestKronOverflow uses shape-only CSR literals (no entries, no Ptr
// allocation) whose dimension products wrap around the int range: Kron must
// reject them with ErrTooLarge before allocating anything, instead of
// corrupting an allocation size.
func TestKronOverflow(t *testing.T) {
	mul := func(x, y int) int { return x * y }
	huge := 1 << 40
	cases := []struct {
		name string
		a, b *CSR[int]
	}{
		{"rows-overflow",
			&CSR[int]{Rows: huge, Cols: 1, Ptr: nil},
			&CSR[int]{Rows: huge, Cols: 1, Ptr: nil}},
		{"cols-overflow",
			&CSR[int]{Rows: 1, Cols: huge, Ptr: nil},
			&CSR[int]{Rows: 1, Cols: huge, Ptr: nil}},
		{"sign-flip",
			&CSR[int]{Rows: 1 << 62, Cols: 1, Ptr: nil},
			&CSR[int]{Rows: 3, Cols: 1, Ptr: nil}},
	}
	for _, tc := range cases {
		if _, err := Kron(tc.a, tc.b, mul, par(2)); err != ErrTooLarge {
			t.Fatalf("%s: err = %v, want ErrTooLarge", tc.name, err)
		}
	}
	// CheckedMul itself: boundary sanity.
	if _, ok := CheckedMul(1<<32, 1<<32); ok {
		t.Fatal("2^64 product reported as representable")
	}
	if p, ok := CheckedMul(1<<31, 1<<31); !ok || p != 1<<62 {
		t.Fatalf("2^62 product rejected: %d %v", p, ok)
	}
	if p, ok := CheckedMul(0, 1<<62); !ok || p != 0 {
		t.Fatal("zero product rejected")
	}
}

// TestExtractColV and TestDiagKernel: a column gathered as a vector, and a
// vector set on a diagonal, are the program generator's extract and build
// steps (progen_test.go).
func TestExtractColV(t *testing.T) { runConfig(t, config{kinds: sExtractM, kits: kPT | kLL}) }
func TestDiagKernel(t *testing.T)  { runConfig(t, config{kinds: sBuild, kits: kPI | kMP}) }
