package grb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Table III extension: the bitmap exchange formats (GxB_BITMAP_VECTOR,
// GxB_BITMAP_MATRIX). The layout is the block-format one — a full values
// array plus a parallel presence-flag array in indices (nonzero = present)
// — so import/export round-trips must preserve the pattern even where
// stored values equal the zero value of T.

func TestTableIII_BitmapVector(t *testing.T) {
	setMode(t, Blocking)
	// flags mark positions 1 and 3; position 2's value is ignored.
	v, err := VectorImport(4, []Index{0, 1, 0, 1}, []int{9, 10, 99, 12}, FormatBitmapVector)
	if err != nil {
		t.Fatal(err)
	}
	if nv := ck1(v.Nvals()); nv != 2 {
		t.Fatalf("bitmap import nvals = %d", nv)
	}
	if x, ok := ck2(v.ExtractElement(1)); !ok || x != 10 {
		t.Fatalf("(1) = %d,%v", x, ok)
	}
	if _, ok := ck2(v.ExtractElement(2)); ok {
		t.Fatal("unflagged position 2 imported an entry")
	}

	// Export: absent positions carry zero flag and zero value.
	ni, nvals := ck2(v.VectorExportSize(FormatBitmapVector))
	if ni != 4 || nvals != 4 {
		t.Fatalf("export size = %d/%d, want 4/4", ni, nvals)
	}
	ind, val := ck2(v.VectorExport(FormatBitmapVector))
	wantInd := []Index{0, 1, 0, 1}
	wantVal := []int{0, 10, 0, 12}
	for i := range wantInd {
		if ind[i] != wantInd[i] || val[i] != wantVal[i] {
			t.Fatalf("export[%d] = (%d,%d), want (%d,%d)", i, ind[i], val[i], wantInd[i], wantVal[i])
		}
	}

	// Length validation.
	if _, err := VectorImport(4, []Index{1, 1}, []int{1, 2}, FormatBitmapVector); Code(err) != InvalidValue {
		t.Fatalf("short bitmap import: err = %v, want InvalidValue", err)
	}
}

func TestTableIII_BitmapMatrix(t *testing.T) {
	setMode(t, Blocking)
	// 2x3, row-major flags: entries at (0,1) and (1,2).
	m, err := MatrixImport(2, 3, nil,
		[]Index{0, 1, 0, 0, 0, 1}, []int{0, 7, 0, 0, 0, 8}, FormatBitmapMatrix)
	if err != nil {
		t.Fatal(err)
	}
	if nv := ck1(m.Nvals()); nv != 2 {
		t.Fatalf("bitmap import nvals = %d", nv)
	}
	if x, ok := ck2(m.ExtractElement(1, 2)); !ok || x != 8 {
		t.Fatalf("(1,2) = %d,%v", x, ok)
	}

	np, ni, nv := ck3(m.MatrixExportSize(FormatBitmapMatrix))
	if np != 0 || ni != 6 || nv != 6 {
		t.Fatalf("export size = %d/%d/%d, want 0/6/6", np, ni, nv)
	}
	_, ind, val := ck3(m.MatrixExport(FormatBitmapMatrix))
	wantInd := []Index{0, 1, 0, 0, 0, 1}
	wantVal := []int{0, 7, 0, 0, 0, 8}
	for k := range wantInd {
		if ind[k] != wantInd[k] || val[k] != wantVal[k] {
			t.Fatalf("export[%d] = (%d,%d), want (%d,%d)", k, ind[k], val[k], wantInd[k], wantVal[k])
		}
	}

	if _, err := MatrixImport(2, 3, nil, []Index{1}, []int{1}, FormatBitmapMatrix); Code(err) != InvalidValue {
		t.Fatalf("short bitmap import: err = %v, want InvalidValue", err)
	}
}

// TestBitmapMatrixImportAllocatesOnce: a bitmap import counts its flags
// first, so the matrix's Ind and Val are allocated once, at exactly nvals.
func TestBitmapMatrixImportAllocatesOnce(t *testing.T) {
	setMode(t, Blocking)
	const rows, cols = 120, 100
	flags, vals := make([]Index, rows*cols), make([]int, rows*cols)
	want := 0
	for p := range flags {
		if p%3 == 0 || p%7 == 0 {
			flags[p], vals[p] = 1, p
			want++
		}
	}
	m := ck1(MatrixImport(rows, cols, nil, flags, vals, FormatBitmapMatrix))
	c := ck1(m.snapshot())
	if c.NNZ() != want || cap(c.Ind) != want || cap(c.Val) != want {
		t.Errorf("bitmap import: %d entries in capacity %d/%d, want exactly %d", c.NNZ(), cap(c.Ind), cap(c.Val), want)
	}
}

// TestBitmapRoundTripProperty: export→import through the bitmap matrix format
// is lossless for random matrices — including explicitly stored zeros, which
// the presence flags (not the values) must carry. The vector formats' round
// trip is the program generator's (progen_test.go).
func TestBitmapRoundTripProperty(t *testing.T) {
	setMode(t, Blocking)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(10)
		cols := 1 + rng.Intn(10)
		var I, J []Index
		var X []int
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if rng.Intn(3) == 0 {
					I = append(I, Index(i))
					J = append(J, Index(j))
					X = append(X, rng.Intn(5)) // 0 is common: stored zeros
				}
			}
		}
		m := mustMatrix(t, rows, cols, I, J, X)
		_, ind, val, err := m.MatrixExport(FormatBitmapMatrix)
		if err != nil {
			return false
		}
		back, err := MatrixImport(rows, cols, nil, ind, val, FormatBitmapMatrix)
		if err != nil {
			return false
		}
		ai, aj, ax := ck3(m.ExtractTuples())
		bi, bj, bx := ck3(back.ExtractTuples())
		if len(ai) != len(bi) {
			return false
		}
		for k := range ai {
			if ai[k] != bi[k] || aj[k] != bj[k] || ax[k] != bx[k] {
				return false
			}
		}

		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
