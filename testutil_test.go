package grb

import "testing"

// setMode (re)initializes the library in the requested mode for one test,
// restoring a clean slate afterwards. Tests that depend on the execution
// mode must not run in parallel with each other.
func setMode(t *testing.T, mode Mode) {
	t.Helper()
	reset()
	if err := Init(mode); err != nil {
		t.Fatalf("Init(%v): %v", mode, err)
	}
	t.Cleanup(func() { _ = Finalize() }) //grblint:ignore infocheck -- best-effort teardown
}

// reset finalizes whatever an earlier test left initialized, for the tests
// that must start before Init.
func reset() {
	_ = Finalize() //grblint:ignore infocheck -- reset idiom: "not initialized" is expected
}

// mustMatrix builds a matrix from tuples or fails the test.
func mustMatrix[T any](t *testing.T, rows, cols int, I, J []Index, X []T) *Matrix[T] {
	t.Helper()
	m, err := NewMatrix[T](rows, cols)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if len(I) > 0 {
		if err := m.Build(I, J, X, Second[T, T]); err != nil {
			t.Fatalf("Build: %v", err)
		}
	}
	return m
}

// mustVector builds a vector from tuples or fails the test.
func mustVector[T any](t *testing.T, n int, I []Index, X []T) *Vector[T] {
	t.Helper()
	v, err := NewVector[T](n)
	if err != nil {
		t.Fatalf("NewVector: %v", err)
	}
	if len(I) > 0 {
		if err := v.Build(I, X, Second[T, T]); err != nil {
			t.Fatalf("Build: %v", err)
		}
	}
	return v
}

// matrixEquals checks a matrix against expected tuples (row-major order).
func matrixEquals[T comparable](t *testing.T, m *Matrix[T], wantI, wantJ []Index, wantX []T) {
	t.Helper()
	I, J, X, err := m.ExtractTuples()
	if err != nil {
		t.Fatalf("ExtractTuples: %v", err)
	}
	if len(I) != len(wantI) {
		t.Fatalf("nvals = %d, want %d (got I=%v J=%v X=%v)", len(I), len(wantI), I, J, X)
	}
	for k := range I {
		if I[k] != wantI[k] || J[k] != wantJ[k] || X[k] != wantX[k] {
			t.Fatalf("entry %d = (%d,%d)=%v, want (%d,%d)=%v", k, I[k], J[k], X[k], wantI[k], wantJ[k], wantX[k])
		}
	}
}

// vectorEquals checks a vector against expected tuples (index order).
func vectorEquals[T comparable](t *testing.T, v *Vector[T], wantI []Index, wantX []T) {
	t.Helper()
	I, X, err := v.ExtractTuples()
	if err != nil {
		t.Fatalf("ExtractTuples: %v", err)
	}
	if len(I) != len(wantI) {
		t.Fatalf("nvals = %d, want %d (got I=%v X=%v)", len(I), len(wantI), I, X)
	}
	for k := range I {
		if I[k] != wantI[k] || X[k] != wantX[k] {
			t.Fatalf("entry %d = (%d)=%v, want (%d)=%v", k, I[k], X[k], wantI[k], wantX[k])
		}
	}
}

// wantCode asserts the Info code of an error.
func wantCode(t *testing.T, err error, want Info) {
	t.Helper()
	if Code(err) != want {
		t.Fatalf("error = %v (code %v), want code %v", err, Code(err), want)
	}
}

// ck fails the running test by panicking on an unexpected error from a grb
// call; grblint (infocheck) forbids discarding these silently.
func ck(err error) {
	if err != nil {
		panic(err)
	}
}

// ck1 unwraps a (value, error) grb result, panicking on error.
func ck1[A any](a A, err error) A { ck(err); return a }

// ck2 unwraps a (value, value, error) grb result, panicking on error.
func ck2[A, B any](a A, b B, err error) (A, B) { ck(err); return a, b }

// ck3 unwraps a (value, value, value, error) grb result, panicking on error.
func ck3[A, B, C any](a A, b B, c C, err error) (A, B, C) { ck(err); return a, b, c }
