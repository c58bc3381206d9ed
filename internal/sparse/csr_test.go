package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func eqInt(a, b int) bool { return a == b }

func TestBuildCSRBasic(t *testing.T) {
	m, err := BuildCSR(3, 4,
		[]int{2, 0, 0, 1}, []int{1, 3, 0, 2}, []int{20, 3, 1, 12},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Valid() {
		t.Fatal("invalid CSR")
	}
	if m.NNZ() != 4 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	if v, ok := m.Get(0, 0); !ok || v != 1 {
		t.Fatalf("Get(0,0) = %d,%v", v, ok)
	}
	if v, ok := m.Get(2, 1); !ok || v != 20 {
		t.Fatalf("Get(2,1) = %d,%v", v, ok)
	}
	if _, ok := m.Get(1, 0); ok {
		t.Fatal("Get(1,0) should be absent")
	}
}

func TestBuildCSRDuplicates(t *testing.T) {
	// dup supplied: combined in input order.
	m, err := BuildCSR(2, 2,
		[]int{0, 0, 0}, []int{1, 1, 1}, []int{1, 2, 4},
		func(a, b int) int { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Get(0, 1); v != 7 {
		t.Fatalf("dup sum = %d, want 7", v)
	}
	// nil dup: duplicates are an error (GraphBLAS 2.0 §IX).
	if _, err := BuildCSR(2, 2, []int{0, 0}, []int{1, 1}, []int{1, 2}, nil); err != ErrDuplicate {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

func TestBuildCSRBounds(t *testing.T) {
	if _, err := BuildCSR(2, 2, []int{2}, []int{0}, []int{1}, nil); err != ErrIndexOutOfBounds {
		t.Fatalf("err = %v", err)
	}
	if _, err := BuildCSR(2, 2, []int{0}, []int{-1}, []int{1}, nil); err != ErrIndexOutOfBounds {
		t.Fatalf("err = %v", err)
	}
}

func TestMergeTuplesLastWins(t *testing.T) {
	m, _ := BuildCSR(2, 3, []int{0, 1}, []int{0, 2}, []int{1, 2}, nil)
	out, err := MergeTuples(m, []Tuple[int]{
		{Row: 0, Col: 0, Val: 10},            // overwrite
		{Row: 0, Col: 1, Val: 5},             // insert
		{Row: 0, Col: 1, Val: 6},             // later wins
		{Row: 1, Col: 2, Del: true},          // delete
		{Row: 1, Col: 1, Val: 9, Del: false}, // insert
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Valid() {
		t.Fatal("invalid after merge")
	}
	if v, _ := out.Get(0, 0); v != 10 {
		t.Fatalf("(0,0)=%d", v)
	}
	if v, _ := out.Get(0, 1); v != 6 {
		t.Fatalf("(0,1)=%d", v)
	}
	if _, ok := out.Get(1, 2); ok {
		t.Fatal("(1,2) should be deleted")
	}
	if v, _ := out.Get(1, 1); v != 9 {
		t.Fatalf("(1,1)=%d", v)
	}
	// original untouched (immutability)
	if v, _ := m.Get(0, 0); v != 1 {
		t.Fatal("input mutated")
	}
}

func TestMergeTuplesSetThenDeleteThenSet(t *testing.T) {
	m := NewCSR[int](1, 1)
	out, err := MergeTuples(m, []Tuple[int]{
		{Row: 0, Col: 0, Val: 1},
		{Row: 0, Col: 0, Del: true},
		{Row: 0, Col: 0, Val: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := out.Get(0, 0); !ok || v != 3 {
		t.Fatalf("(0,0)=%d,%v want 3", v, ok)
	}
}

func TestResize(t *testing.T) {
	m, _ := BuildCSR(3, 3, []int{0, 1, 2}, []int{0, 1, 2}, []int{1, 2, 3}, nil)
	small := m.Resize(2, 2)
	if !small.Valid() || small.NNZ() != 2 {
		t.Fatalf("shrink: nnz=%d", small.NNZ())
	}
	big := m.Resize(5, 5)
	if !big.Valid() || big.NNZ() != 3 || big.Rows != 5 {
		t.Fatalf("grow: nnz=%d rows=%d", big.NNZ(), big.Rows)
	}
}

func TestTuplesRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		n := rng.Intn(rows * cols)
		// distinct coordinates
		perm := rng.Perm(rows * cols)[:n]
		I := make([]int, n)
		J := make([]int, n)
		X := make([]int, n)
		for k, p := range perm {
			I[k], J[k], X[k] = p/cols, p%cols, rng.Int()
		}
		m, err := BuildCSR(rows, cols, I, J, X, nil)
		if err != nil || !m.Valid() {
			return false
		}
		oi, oj, ox := m.Tuples(nil, nil, nil)
		back, err := BuildCSR(rows, cols, oi, oj, ox, nil)
		if err != nil {
			return false
		}
		return EqualFunc(m, back, eqInt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// tuplesByElement is CSR.Tuples as it was, one append per element: the
// oracle the presized copy-out is held to.
func tuplesByElement[T any](m *CSR[T], I, J []int, X []T) ([]int, []int, []T) {
	for i := 0; i < m.Rows; i++ {
		ind, val := m.Row(i)
		for k := range ind {
			I, J, X = append(I, i), append(J, ind[k]), append(X, val[k])
		}
	}
	return I, J, X
}

// TestCSRTuplesAllocatesOnce: Tuples grows each of its three slices once, to
// exactly NNZ, on a matrix whose NNZ is not a power of two and has empty
// rows; the tuples are the element loop's, bit for bit, and a caller's
// non-nil slices keep their prefix.
func TestCSRTuplesAllocatesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	const rows, cols = 3001, 997
	var I, J []int
	var X []float64
	for i := 0; i < rows; i++ {
		if i%7 == 3 {
			continue // an empty row
		}
		for k := range 1 + i%8 { // distinct columns: 101·k < cols
			I, J, X = append(I, i), append(J, (31*i+101*k)%cols), append(X, spikedFloat(rng))
		}
	}
	X[5] = math.NaN()
	m, err := BuildCSR(rows, cols, I, J, X, nil)
	if err != nil {
		t.Fatal(err)
	}
	nnz := m.NNZ()
	if nnz < 10000 || nnz&(nnz-1) == 0 {
		t.Fatalf("nnz = %d: want at least 10 000 and not a power of two", nnz)
	}

	empty := NewCSR[float64](rows, cols)
	base := testing.AllocsPerRun(10, func() { empty.Tuples(nil, nil, nil) })
	if got := testing.AllocsPerRun(10, func() { m.Tuples(nil, nil, nil) }); got > base+3 {
		t.Errorf("Tuples made %.1f allocations, want at most %.1f (the empty matrix's %.1f + 3)", got, base+3, base)
	}

	gi, gj, gx := m.Tuples(nil, nil, nil)
	for name, s := range map[string][]int{"I": gi, "J": gj} {
		if len(s) != nnz || cap(s) != nnz {
			t.Errorf("%s: len %d, cap %d, want both %d", name, len(s), cap(s), nnz)
		}
	}
	if len(gx) != nnz || cap(gx) != nnz {
		t.Errorf("X: len %d, cap %d, want both %d", len(gx), cap(gx), nnz)
	}
	wi, wj, wx := tuplesByElement(m, nil, nil, nil)
	same := func(what string, gi, gj []int, gx []float64, wi, wj []int, wx []float64) {
		t.Helper()
		if !slices.Equal(gi, wi) || !slices.Equal(gj, wj) || !slices.EqualFunc(gx, wx, sameBits[float64]) {
			t.Fatalf("%s: the tuples differ from the element loop's", what)
		}
	}
	same("nil slices", gi, gj, gx, wi, wj, wx)

	// Caller slices, one with room to spare and two without: the prefix stays.
	pi, pj, px := make([]int, 3, nnz+10), []int{-1, -2}, []float64{math.Inf(-1)}
	pi[0], pi[1], pi[2] = 7, 8, 9
	gi, gj, gx = m.Tuples(pi, pj, px)
	wi, wj, wx = tuplesByElement(m, []int{7, 8, 9}, []int{-1, -2}, []float64{math.Inf(-1)})
	same("caller slices", gi, gj, gx, wi, wj, wx)
	if &gi[0] != &pi[0] {
		t.Error("I had room for the tuples, yet moved")
	}
}

func TestCloneIndependence(t *testing.T) {
	m, _ := BuildCSR(2, 2, []int{0}, []int{0}, []int{1}, nil)
	c := m.Clone()
	c.Val[0] = 99
	if v, _ := m.Get(0, 0); v != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestValidDetectsCorruption(t *testing.T) {
	m, _ := BuildCSR(2, 2, []int{0, 1}, []int{0, 1}, []int{1, 2}, nil)
	if !m.Valid() {
		t.Fatal("should be valid")
	}
	bad := m.Clone()
	bad.Ind[0] = 5 // out of range column
	if bad.Valid() {
		t.Fatal("corruption not detected")
	}
	bad2 := m.Clone()
	bad2.Ptr[1] = 3 // non-monotone / out of range
	if bad2.Valid() {
		t.Fatal("corruption not detected")
	}
}

func TestVecBuildAndTuples(t *testing.T) {
	v, err := BuildVec(5, []int{3, 0}, []float64{3.5, 0.5}, nil)
	if err != nil || !v.Valid() {
		t.Fatal(err)
	}
	if x, ok := v.Get(3); !ok || x != 3.5 {
		t.Fatalf("Get(3)=%v,%v", x, ok)
	}
	if _, err := BuildVec(5, []int{1, 1}, []float64{1, 2}, nil); err != ErrDuplicate {
		t.Fatalf("err=%v", err)
	}
	if _, err := BuildVec(5, []int{5}, []float64{1}, nil); err != ErrIndexOutOfBounds {
		t.Fatalf("err=%v", err)
	}
}

func TestMergeVTuples(t *testing.T) {
	v, _ := BuildVec(4, []int{1, 3}, []int{10, 30}, nil)
	out, err := MergeVTuples(v, []VTuple[int]{
		{Idx: 1, Del: true},
		{Idx: 0, Val: 5},
		{Idx: 3, Val: 33},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Valid() || out.NNZ() != 2 {
		t.Fatalf("nnz=%d", out.NNZ())
	}
	if x, _ := out.Get(0); x != 5 {
		t.Fatalf("(0)=%d", x)
	}
	if x, _ := out.Get(3); x != 33 {
		t.Fatalf("(3)=%d", x)
	}
}

func TestScatterGather(t *testing.T) {
	v, _ := BuildVec(6, []int{1, 4}, []int{7, 8}, nil)
	dv, ok := scatter(v)
	back := GatherVec(dv, ok)
	if !VecEqualFunc(v, back, eqInt) {
		t.Fatal("scatter/gather mismatch")
	}
}
