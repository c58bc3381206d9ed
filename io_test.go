package grb

import (
	"runtime"
	"testing"
)

func TestFormatStringsAndPinnedValues(t *testing.T) {
	// §IX: GrB_Format members carry pinned values.
	if int(FormatCSR) != 0 || int(FormatCSC) != 1 || int(FormatCOO) != 2 ||
		int(FormatDenseRow) != 3 || int(FormatDenseCol) != 4 ||
		int(FormatSparseVector) != 5 || int(FormatDenseVector) != 6 {
		t.Fatal("format values not pinned per spec")
	}
	names := map[Format]string{
		FormatCSR:          "GrB_CSR_MATRIX",
		FormatCSC:          "GrB_CSC_MATRIX",
		FormatCOO:          "GrB_COO_MATRIX",
		FormatDenseRow:     "GrB_DENSE_ROW_MATRIX",
		FormatDenseCol:     "GrB_DENSE_COL_MATRIX",
		FormatSparseVector: "GrB_SPARSE_VECTOR",
		FormatDenseVector:  "GrB_DENSE_VECTOR",
	}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("%d.String() = %q want %q", int(f), f.String(), want)
		}
	}
	if Format(9).String() != "GrB_Format(?)" {
		t.Error("unknown format name")
	}
}

// TestTableIII_CSRImportExport covers the CSR format exactly as Table III
// describes it, including unsorted rows.
func TestTableIII_CSRImportExport(t *testing.T) {
	setMode(t, Blocking)
	// 3x4 matrix; row 0 given with UNSORTED column indices (allowed).
	indptr := []Index{0, 2, 2, 4}
	indices := []Index{3, 0, 1, 2}
	values := []float64{30, 0.5, 21, 22}
	m, err := MatrixImport(3, 4, indptr, indices, values, FormatCSR)
	if err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, m,
		[]Index{0, 0, 2, 2}, []Index{0, 3, 1, 2}, []float64{0.5, 30, 21, 22})
	// export is sorted canonical CSR
	op, oi, ov, err := m.MatrixExport(FormatCSR)
	if err != nil {
		t.Fatal(err)
	}
	wantP := []Index{0, 2, 2, 4}
	for k := range wantP {
		if op[k] != wantP[k] {
			t.Fatalf("export indptr = %v", op)
		}
	}
	if oi[0] != 0 || oi[1] != 3 || ov[0] != 0.5 {
		t.Fatalf("export indices/values = %v %v", oi, ov)
	}
}

func TestTableIII_CSCImportExport(t *testing.T) {
	setMode(t, Blocking)
	// CSC of [[1 0],[2 3]]: col 0 holds rows {0,1}, col 1 holds {1}
	m, err := MatrixImport(2, 2,
		[]Index{0, 2, 3}, []Index{0, 1, 1}, []float64{1, 2, 3}, FormatCSC)
	if err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, m, []Index{0, 1, 1}, []Index{0, 0, 1}, []float64{1, 2, 3})
	p, i, v, err := m.MatrixExport(FormatCSC)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 0 || p[1] != 2 || p[2] != 3 || i[0] != 0 || i[1] != 1 || i[2] != 1 || v[2] != 3 {
		t.Fatalf("CSC export %v %v %v", p, i, v)
	}
}

// TestTableIII_COOConvention checks the paper's (unusual) COO convention:
// indptr carries COLUMN indices and indices carries ROW indices.
func TestTableIII_COOConvention(t *testing.T) {
	setMode(t, Blocking)
	cols := []Index{2, 0}
	rows := []Index{0, 1}
	vals := []float64{7, 8}
	m, err := MatrixImport(2, 3, cols, rows, vals, FormatCOO)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := ck2(m.ExtractElement(0, 2)); !ok || v != 7 {
		t.Fatalf("COO placement wrong: (0,2)=%v,%v", v, ok)
	}
	ep, ei, ev, err := m.MatrixExport(FormatCOO)
	if err != nil {
		t.Fatal(err)
	}
	// row-major export order: (0,2) then (1,0)
	if ei[0] != 0 || ep[0] != 2 || ev[0] != 7 || ei[1] != 1 || ep[1] != 0 {
		t.Fatalf("COO export %v %v %v", ep, ei, ev)
	}
}

func TestTableIII_DenseFormats(t *testing.T) {
	setMode(t, Blocking)
	// values row-major: [[1 2],[3 4]]
	m, err := MatrixImport(2, 2, nil, nil, []int{1, 2, 3, 4}, FormatDenseRow)
	if err != nil {
		t.Fatal(err)
	}
	nv := ck1(m.Nvals())
	if nv != 4 {
		t.Fatalf("dense import nvals = %d", nv)
	}
	if v, _ := ck2(m.ExtractElement(1, 0)); v != 3 {
		t.Fatalf("(1,0)=%d", v)
	}
	// column-major same data: [[1 3],[2 4]]
	mc, err := MatrixImport(2, 2, nil, nil, []int{1, 2, 3, 4}, FormatDenseCol)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := ck2(mc.ExtractElement(1, 0)); v != 2 {
		t.Fatalf("col-major (1,0)=%d", v)
	}
	if v, _ := ck2(mc.ExtractElement(0, 1)); v != 3 {
		t.Fatalf("col-major (0,1)=%d", v)
	}
	// dense export of a sparse matrix fills absent positions with zeros
	sp := mustMatrix(t, 2, 2, []Index{0}, []Index{1}, []int{9})
	_, _, vals, err := sp.MatrixExport(FormatDenseRow)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 0 || vals[1] != 9 || vals[2] != 0 || vals[3] != 0 {
		t.Fatalf("dense export = %v", vals)
	}
	_, _, cvals := ck3(sp.MatrixExport(FormatDenseCol))
	if cvals[2] != 9 {
		t.Fatalf("dense col export = %v", cvals)
	}
}

func TestImportValidation(t *testing.T) {
	setMode(t, Blocking)
	// wrong indptr length
	if _, err := MatrixImport(2, 2, []Index{0, 1}, []Index{0}, []int{1}, FormatCSR); Code(err) != InvalidValue {
		t.Fatalf("short indptr: %v", err)
	}
	// nonmonotone indptr
	if _, err := MatrixImport(2, 2, []Index{0, 2, 1}, []Index{0, 1}, []int{1, 2}, FormatCSR); Code(err) != InvalidValue {
		t.Fatalf("nonmonotone: %v", err)
	}
	// out-of-range index
	if _, err := MatrixImport(2, 2, []Index{0, 1, 1}, []Index{5}, []int{1}, FormatCSR); Code(err) != InvalidIndex {
		t.Fatalf("bad index: %v", err)
	}
	// duplicates rejected
	if _, err := MatrixImport(2, 2, []Index{0, 2, 2}, []Index{1, 1}, []int{1, 2}, FormatCSR); Code(err) != InvalidValue {
		t.Fatalf("dup: %v", err)
	}
	// COO length mismatch / bad coords
	if _, err := MatrixImport(2, 2, []Index{0}, []Index{0, 1}, []int{1, 2}, FormatCOO); Code(err) != InvalidValue {
		t.Fatalf("coo len: %v", err)
	}
	if _, err := MatrixImport(2, 2, []Index{3}, []Index{0}, []int{1}, FormatCOO); Code(err) != InvalidIndex {
		t.Fatalf("coo bad: %v", err)
	}
	// dense wrong length
	if _, err := MatrixImport(2, 2, nil, nil, []int{1, 2, 3}, FormatDenseRow); Code(err) != InvalidValue {
		t.Fatalf("dense len: %v", err)
	}
	// vector format passed to matrix import
	if _, err := MatrixImport(2, 2, nil, nil, []int{1}, FormatSparseVector); Code(err) != InvalidValue {
		t.Fatalf("vec format: %v", err)
	}
	// and matrix format to vector import
	if _, err := VectorImport(2, nil, []int{1, 2}, FormatCSR); Code(err) != InvalidValue {
		t.Fatalf("mat format: %v", err)
	}
}

func TestExportSizeHintAndInsufficientSpace(t *testing.T) {
	setMode(t, Blocking)
	m := mustMatrix(t, 2, 3, []Index{0, 1}, []Index{1, 2}, []float64{1, 2})
	np, ni, nv, err := m.MatrixExportSize(FormatCSR)
	if err != nil || np != 3 || ni != 2 || nv != 2 {
		t.Fatalf("exportSize = %d %d %d, %v", np, ni, nv, err)
	}
	hint, err := m.MatrixExportHint()
	if err != nil || hint != FormatCSR {
		t.Fatalf("hint = %v, %v", hint, err)
	}
	err = m.MatrixExportInto(FormatCSR, make([]Index, 2), make([]Index, 2), make([]float64, 2))
	wantCode(t, err, InsufficientSpace)
	if _, _, _, err := m.MatrixExportSize(Format(9)); Code(err) != InvalidValue {
		t.Fatalf("bad format: %v", err)
	}
}

// TestVectorImportExport: the export hint, dense import storing explicit
// zeros, and the errors; export ∘ import = id in each format is the program
// generator's (progen_test.go).
func TestVectorImportExport(t *testing.T) {
	setMode(t, Blocking)
	v, err := VectorImport(5, []Index{3, 1}, []float64{3.5, 1.5}, FormatSparseVector)
	if err != nil {
		t.Fatal(err)
	}
	if hint := ck1(v.VectorExportHint()); hint != FormatSparseVector {
		t.Fatalf("hint = %v", hint)
	}
	dv, err := VectorImport(5, nil, make([]float64, 5), FormatDenseVector)
	if err != nil {
		t.Fatal(err)
	}
	if nv := ck1(dv.Nvals()); nv != 5 { // dense import stores explicit zeros
		t.Fatalf("dense import nvals = %d", nv)
	}
	wantCode(t, v.VectorExportInto(FormatSparseVector, make([]Index, 1), make([]float64, 1)), InsufficientSpace)
	if _, err := VectorImport(5, []Index{1, 1}, []float64{1, 2}, FormatSparseVector); Code(err) != InvalidValue {
		t.Fatalf("dup: %v", err)
	}
}

// TestImportExportRoundTripProperty: export ∘ import in every Table III
// matrix format, and serialize ∘ deserialize, are the program generator's
// steps.
func TestImportExportRoundTripProperty(t *testing.T) { matrixKit(t, kitInt, serial, gExportM) }

// TestDenseExportLeavesTheVectorWritable: VectorExportInto and String read a
// full vector's values as they are. A sorted view would build an n-int index
// array no export format reads, and pin the vector, so that overwriting it
// allocated afresh: 1 024 KB against 512 KB for a 65 536-entry vector
// exported dense, then overwritten twice. An imported vector's storage is its
// own, so both overwrites write in place and the unread run allocates next to
// nothing: a read may add less than a quarter of the 512 KB value array.
func TestDenseExportLeavesTheVectorWritable(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 1 << 16
	idx, val := make([]Index, n), make([]float64, n)
	run := func(read func(*Vector[float64])) uint64 {
		w := ck1(VectorImport(n, nil, make([]float64, n), FormatDenseVector))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read(w)
		for _, x := range []float64{3, 4} {
			ck(VectorAssignScalar(w, nil, nil, x, All, nil))
			ck(w.Wait(Materialize))
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	without, margin := run(func(*Vector[float64]) {}), uint64(8*n/4)
	for _, format := range []Format{FormatDenseVector, FormatBitmapVector, FormatSparseVector} {
		if got := run(func(w *Vector[float64]) { ck(w.VectorExportInto(format, idx, val)) }); got > without+margin {
			t.Errorf("exported %v, then overwritten twice: %d KB, want within %d KB of %d KB", format, got>>10, margin>>10, without>>10)
		}
	}
	if got := run(func(w *Vector[float64]) { _ = w.String() }); got > without+margin {
		t.Errorf("printed, then overwritten twice: %d KB, want within %d KB of %d KB", got>>10, margin>>10, without>>10)
	}
}
