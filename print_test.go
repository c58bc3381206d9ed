package grb

import (
	"fmt"
	"strings"
	"testing"
)

func TestMatrixString(t *testing.T) {
	setMode(t, NonBlocking)
	m := mustMatrix(t, 2, 3, []Index{0, 1}, []Index{1, 2}, []int{5, 7})
	s := m.String()
	if !strings.Contains(s, "2x3") || !strings.Contains(s, "2 entries") {
		t.Fatalf("summary missing: %q", s)
	}
	if !strings.Contains(s, "5") || !strings.Contains(s, "7") {
		t.Fatalf("values missing: %q", s)
	}
	// large matrix: tuple form with truncation
	var I, J []Index
	var X []int
	for k := 0; k < 30; k++ {
		I = append(I, k)
		J = append(J, k)
		X = append(X, k)
	}
	big := mustMatrix(t, 30, 30, I, J, X)
	bs := big.String()
	if !strings.Contains(bs, "more") {
		t.Fatalf("truncation marker missing: %q", bs)
	}
	// nil / uninitialized
	var nilM *Matrix[int]
	if nilM.String() != "Matrix(nil)" {
		t.Fatal("nil string")
	}
	var zero Matrix[int]
	if zero.String() != "Matrix(uninitialized)" {
		t.Fatal("uninit string")
	}
	// errored object renders the error, does not panic
	bad := ck1(NewMatrix[int](2, 2))
	ck(bad.Build([]Index{0, 0}, []Index{0, 0}, []int{1, 2}, nil))
	ck(bad.Wait(Complete))
	if !strings.Contains(bad.String(), "GrB_INVALID_VALUE") {
		t.Fatalf("error not rendered: %q", bad.String())
	}
}

// TestMatrixStringLeadingTuples: a matrix too large for the grid prints its
// first ten tuples, read off the rows, as the text a full tuple copy printed:
// across an empty row and a row cut by the limit.
func TestMatrixStringLeadingTuples(t *testing.T) {
	setMode(t, NonBlocking)
	I := []Index{0, 0, 0, 2, 2, 5, 5, 5, 5, 5, 5, 7, 19}
	J := []Index{1, 4, 17, 0, 3, 2, 5, 8, 11, 14, 16, 6, 19}
	X := []float64{0.5, -1, 2, 3.25, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	m := mustMatrix(t, 20, 20, I, J, X)
	var want strings.Builder
	want.WriteString("Matrix 20x20, 13 entries")
	for k := range 10 {
		fmt.Fprintf(&want, "\n  (%d,%d) = %v", I[k], J[k], X[k])
	}
	want.WriteString("\n  ... 3 more")
	if got := m.String(); got != want.String() {
		t.Fatalf("got\n%s\nwant\n%s", got, want.String())
	}
	few := mustMatrix(t, 20, 20, I[:4], J[:4], X[:4])
	if got, wantFew := few.String(), "Matrix 20x20, 4 entries\n  (0,1) = 0.5\n  (0,4) = -1\n  (0,17) = 2\n  (2,0) = 3.25"; got != wantFew {
		t.Fatalf("got\n%s\nwant\n%s", got, wantFew)
	}
}

func TestVectorAndScalarString(t *testing.T) {
	setMode(t, NonBlocking)
	v := mustVector(t, 5, []Index{1, 3}, []float64{1.5, -2})
	s := v.String()
	if !strings.Contains(s, "size 5") || !strings.Contains(s, "1.5") {
		t.Fatalf("vector string: %q", s)
	}
	var nilV *Vector[int]
	if nilV.String() != "Vector(nil)" {
		t.Fatal("nil vector string")
	}
	sc := ck1(ScalarOf(42))
	if sc.String() != "Scalar(42)" {
		t.Fatalf("scalar string: %q", sc.String())
	}
	ck(sc.Clear())
	if sc.String() != "Scalar(empty)" {
		t.Fatalf("empty scalar string: %q", sc.String())
	}
	var nilS *Scalar[int]
	if nilS.String() != "Scalar(nil)" {
		t.Fatal("nil scalar string")
	}
}
