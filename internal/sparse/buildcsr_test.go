package sparse

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/grblas/grb/gen"
)

// BuildCSR oracle: a map of maps folded in input order, swept over the tuple
// orders that pick the counting sort's branches (row already ascending, short
// row by insertion, long row by sort.Stable, compaction after a duplicate)
// and over dup operators of which Minus is non-commutative and First/Second
// order-sensitive, so folding in any order but the input's cannot pass.
// Rerun a failure with GRB_DIFF_SEED=<seed>.

// refBuild returns rows' contents as maps, or ErrDuplicate.
func refBuild(rows int, I, J, X []int, dup func(int, int) int) ([]map[int]int, error) {
	out := make([]map[int]int, rows)
	for k, i := range I {
		if out[i] == nil {
			out[i] = map[int]int{}
		}
		if old, ok := out[i][J[k]]; ok {
			if dup == nil {
				return nil, ErrDuplicate
			}
			out[i][J[k]] = dup(old, X[k])
		} else {
			out[i][J[k]] = X[k]
		}
	}
	return out, nil
}

func checkBuild(t *testing.T, name string, rows, cols int, I, J, X []int, dup func(int, int) int) {
	t.Helper()
	keepI, keepJ, keepX := append([]int(nil), I...), append([]int(nil), J...), append([]int(nil), X...)
	want, werr := refBuild(rows, I, J, X, dup)
	got, gerr := BuildCSR(rows, cols, I, J, X, dup)
	if !errors.Is(gerr, werr) {
		t.Fatalf("%s: err = %v, oracle %v", name, gerr, werr)
	}
	for k := range I {
		if I[k] != keepI[k] || J[k] != keepJ[k] || X[k] != keepX[k] {
			t.Fatalf("%s: BuildCSR changed its input at %d", name, k)
		}
	}
	if gerr != nil {
		return
	}
	if !got.Valid() {
		t.Fatalf("%s: result is not a valid CSR", name)
	}
	for i := 0; i < rows; i++ {
		ind, val := got.Row(i)
		if len(ind) != len(want[i]) {
			t.Fatalf("%s: row %d has %d entries, oracle %d", name, i, len(ind), len(want[i]))
		}
		for k, j := range ind {
			if w, ok := want[i][j]; !ok || w != val[k] {
				t.Fatalf("%s: (%d,%d) = %d, oracle %d (present %v)", name, i, j, val[k], w, ok)
			}
		}
	}
}

func TestBuildCSRMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	dups := map[string]func(int, int) int{
		"plus":   func(a, b int) int { return a + b },
		"first":  func(a, b int) int { return a },
		"second": func(a, b int) int { return b },
		"minus":  func(a, b int) int { return a - b },
		"nil":    nil,
	}
	type tuples struct {
		rows, cols int
		I, J       []int
	}
	random := func(rows, cols, n int) tuples {
		tp := tuples{rows: rows, cols: cols}
		for k := 0; k < n; k++ {
			tp.I, tp.J = append(tp.I, rng.Intn(rows)), append(tp.J, rng.Intn(cols))
		}
		return tp
	}
	sorted := func(tp tuples, less func(a, b [2]int) bool) tuples {
		ks := make([][2]int, len(tp.I))
		for k := range ks {
			ks[k] = [2]int{tp.I[k], tp.J[k]}
		}
		sort.SliceStable(ks, func(a, b int) bool { return less(ks[a], ks[b]) })
		for k := range ks {
			tp.I[k], tp.J[k] = ks[k][0], ks[k][1]
		}
		return tp
	}
	rowMajor := func(a, b [2]int) bool { return a[0] < b[0] || a[0] == b[0] && a[1] < b[1] }
	oneRow := func(n, cols int, distinct bool) tuples { // row 1 of 3, columns shuffled
		tp := tuples{rows: 3, cols: cols}
		for k := 0; k < n; k++ {
			j := rng.Intn(cols)
			if distinct {
				j = k
			}
			tp.I, tp.J = append(tp.I, 1), append(tp.J, j)
		}
		rng.Shuffle(n, func(a, b int) { tp.J[a], tp.J[b] = tp.J[b], tp.J[a] })
		return tp
	}
	shapes := map[string]tuples{
		"sorted":        sorted(random(40, 30, 300), rowMajor),
		"reverse":       sorted(random(40, 30, 300), func(a, b [2]int) bool { return rowMajor(b, a) }),
		"shuffled":      random(40, 30, 300),
		"sorted-unique": sorted(tuples{rows: 5, cols: 9, I: []int{0, 0, 2, 2, 2, 4}, J: []int{1, 8, 0, 3, 4, 7}}, rowMajor),
		"one-row":       oneRow(200, 50, false),
		"one-cell":      {rows: 4, cols: 4, I: []int{2, 2, 2, 2, 2}, J: []int{3, 3, 3, 3, 3}},
		"empty-rows":    sorted(random(1000, 1000, 60), func(a, b [2]int) bool { return a[1] < b[1] }),
		"no-rows":       {rows: 0, cols: 5},
		"no-tuples":     {rows: 7, cols: 5},
		// A row of distinct columns out of order takes the sort and no fold;
		// one either side of the insertion-sort cutoff takes each sorter.
		"cutoff-1":      oneRow(insertionSortMax-1, 2*insertionSortMax, true),
		"cutoff":        oneRow(insertionSortMax, 2*insertionSortMax, true),
		"cutoff+1":      oneRow(insertionSortMax+1, 2*insertionSortMax, true),
		"cutoff+1-dups": oneRow(insertionSortMax+1, 7, false),
		"long-row-dups": oneRow(4*insertionSortMax, 300, false),
	}
	for sname, tp := range shapes {
		X := make([]int, len(tp.I))
		for k := range X {
			X[k] = rng.Intn(1000)
		}
		for dname, dup := range dups {
			checkBuild(t, sname+"/"+dname, tp.rows, tp.cols, tp.I, tp.J, X, dup)
		}
	}
}

// rmat14 is the ingest workload's input: the directed rmat-14 edge list in
// row-major order, its first hundredth repeated at the end.
func rmat14() (n int, I, J []int, X []float64) {
	g := gen.Graph500RMAT(14, 8, 42)
	w := gen.UniformWeights(g, 1, 2, 7)
	d := len(g.Src) / 100
	return g.N, append(g.Src, g.Src[:d]...), append(g.Dst, g.Dst[:d]...), append(w, w[:d]...)
}

// TestBuildCSRAllocations: a build allocates its result and nothing that
// grows with the input — no permutation, no copy of the tuples.
func TestBuildCSRAllocations(t *testing.T) {
	n, I, J, X := rmat14()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := BuildCSR(n, n, I, J, X, addF); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("BuildCSR: %.0f allocations, want <= 6", allocs)
	}
}

// BenchmarkBuildCSR is the counting-sort build on the ingest workload's
// tuples as the workload feeds them (sorted but for the repeated tail) and
// shuffled, which the frozen workload never does.
func BenchmarkBuildCSR(b *testing.B) {
	n, I, J, X := rmat14()
	run := func(name string) {
		b.Run(fmt.Sprintf("%s/n=%d", name, len(I)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildCSR(n, n, I, J, X, addF); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("sorted")
	rand.New(rand.NewSource(16)).Shuffle(len(I), func(a, c int) {
		I[a], I[c] = I[c], I[a]
		J[a], J[c] = J[c], J[a]
		X[a], X[c] = X[c], X[a]
	})
	run("shuffled")
}
