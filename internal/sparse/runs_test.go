package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randIntVec is an n-vector of nnz random entries.
func randIntVec(rng *rand.Rand, n, nnz int) *Vec[int] {
	v := &Vec[int]{N: n, Ind: rng.Perm(n)[:nnz], Val: make([]int, nnz)}
	sort.Ints(v.Ind)
	for k := range v.Val {
		v.Val[k] = rng.Intn(19) - 9
	}
	return v
}

// oneRow is v as a 1×n matrix over the same storage.
func oneRow[T any](v *Vec[T]) *CSR[T] {
	return &CSR[T]{Rows: 1, Cols: v.N, Ptr: []int{0, len(v.Ind)}, Ind: v.Ind, Val: v.Val}
}

// row0 is the first row of m as a vector over the same storage.
func row0[T any](m *CSR[T]) *Vec[T] {
	ind, val := m.Row(0)
	return &Vec[T]{N: m.Cols, Ind: ind, Val: val}
}

// TestAssignVAllIndices: GrB_ALL is the index list 0..N-1 without the list —
// the same candidate, and no allocation that grows with N.
func TestAssignVAllIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	minus := func(x, y int) int { return x - 2*y }
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		c, u := randIntVec(rng, n, rng.Intn(n+1)), randIntVec(rng, n, rng.Intn(n+1))
		for _, accum := range []func(int, int) int{nil, minus} {
			got, err := AssignV(c, u, nil, accum, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := AssignV(c, u, fullPattern(n), accum, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			identicalVec(t, fmt.Sprintf("trial %d accum=%v", trial, accum != nil), got, want)
		}
	}
	var sink *Vec[int]
	bytesAt := func(n int) uint64 {
		c, u := randIntVec(rng, n, 50), randIntVec(rng, n, 50)
		return allocatedBytes(func() { sink, _ = AssignV(c, u, nil, minus, Exec{}) })
	}
	if small, large := bytesAt(1<<10), bytesAt(1<<20); large > small+256 {
		t.Errorf("AssignV over all indices allocates %d bytes at N=2^10 and %d at N=2^20; want no growth with N", small, large)
	}
	_ = sink
}

// TestExtractMAllocations: an extract allocates its result, its range
// buffers and one inverse of the column list — a count that does not grow
// with either list (it was a slice per listed column and a sort buffer per
// row).
func TestExtractMAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	a := randCSR(rng, 1000, 1000, 0.02)
	for _, shuffled := range []bool{false, true} {
		rows, cols := rng.Perm(a.Rows)[:600], rng.Perm(a.Cols)[:600]
		if !shuffled { // the EgoNet shape: one ascending list, both ways
			sort.Ints(cols)
			rows = cols
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ExtractM(a, rows, cols, Exec{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("ExtractM of 600 rows × 600 columns (shuffled=%v): %.0f allocations, want <= 16", shuffled, allocs)
		}
	}
}

// TestExtractMInvertsShortAndLongLists holds ExtractM, and the sorted
// inverse row by row, to the counting-sort inverse, bit for bit, on lists
// short enough to sort (empty, one index, a few unsorted with repeats) and
// as long as Cols (a permutation, and a draw with repeats), over spiked
// float values; ExtractM must take each of invertList's paths somewhere.
func TestExtractMInvertsShortAndLongLists(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	took := map[bool]int{}
	for _, cols := range []int{1, 7, 64, 300, 5000} {
		a := sprayCSR(rng, 40, cols, min(8*cols, 400), spikedFloat)
		rows := rng.Perm(a.Rows)[:25]
		draw := make([]int, cols)
		for j := range draw {
			draw[j] = rng.Intn(cols)
		}
		lists := [][]int{{}, {rng.Intn(cols)}, rng.Perm(cols), draw}
		if cols > 4 {
			lists = append(lists, []int{cols - 1, 2, 0, 2, cols - 1})
		}
		for _, list := range lists {
			got, err := ExtractM(a, rows, list, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			byInverse := func(inv inverse) *CSR[float64] {
				return rowwise(len(rows), len(list), 1, func(lo, hi int) int { return (hi - lo) * len(list) },
					func(i int, ind []int, val []float64) ([]int, []float64) {
						return gatherRun(ind, val, a.run(rows[i]), inv)
					})
			}
			want := byInverse(countInverse(list, cols))
			label := fmt.Sprintf("cols=%d len=%d", cols, len(list))
			identicalCSR(t, label+" ExtractM", got, want)
			identicalCSR(t, label+" sorted inverse", byInverse(sortInverse(list)), want)
			took[invertList(list, cols, listedWork(a.Ptr, rows, 0, math.MaxInt)).key != nil]++
		}
	}
	if took[true] == 0 || took[false] == 0 {
		t.Fatalf("ExtractM sorted %d lists and counted %d; the test must reach both", took[true], took[false])
	}
}
