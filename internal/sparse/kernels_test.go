package sparse

import (
	"math/rand"
	"testing"
)

// ---------------------------------------------------------------------------
// Dense reference implementations: every kernel is validated against a
// straightforward dense computation on randomly generated inputs, across a
// range of thread counts.
// ---------------------------------------------------------------------------

// denseOf expands a CSR into (values, present) dense form.
func denseOf(m *CSR[int]) ([][]int, [][]bool) {
	v := make([][]int, m.Rows)
	p := make([][]bool, m.Rows)
	for i := 0; i < m.Rows; i++ {
		v[i] = make([]int, m.Cols)
		p[i] = make([]bool, m.Cols)
		ind, val := m.Row(i)
		for k := range ind {
			v[i][ind[k]] = val[k]
			p[i][ind[k]] = true
		}
	}
	return v, p
}

// fromDense builds a CSR from dense (values, present) form.
func fromDense(v [][]int, p [][]bool) *CSR[int] {
	rows := len(v)
	cols := 0
	if rows > 0 {
		cols = len(v[0])
	}
	out := NewCSR[int](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if p[i][j] {
				out.Ind = append(out.Ind, j)
				out.Val = append(out.Val, v[i][j])
			}
		}
		out.Ptr[i+1] = len(out.Ind)
	}
	return out
}

func randCSR(rng *rand.Rand, rows, cols int, density float64) *CSR[int] {
	out := NewCSR[int](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				out.Ind = append(out.Ind, j)
				out.Val = append(out.Val, 1+rng.Intn(9))
			}
		}
		out.Ptr[i+1] = len(out.Ind)
	}
	return out
}

func randBoolCSR(rng *rand.Rand, rows, cols int, density float64) *CSR[bool] {
	out := NewCSR[bool](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				out.Ind = append(out.Ind, j)
				out.Val = append(out.Val, rng.Intn(2) == 0)
			}
		}
		out.Ptr[i+1] = len(out.Ind)
	}
	return out
}

func randVec(rng *rand.Rand, n int, density float64) *Vec[int] {
	out := NewVec[int](n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			out.Ind = append(out.Ind, i)
			out.Val = append(out.Val, 1+rng.Intn(9))
		}
	}
	return out
}

var threadCounts = []int{1, 2, 4, 7}

func TestSpGEMMAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	add := func(a, b int) int { return a + b }
	mul := func(a, b int) int { return a * b }
	for trial := 0; trial < 20; trial++ {
		m := 1 + rng.Intn(15)
		k := 1 + rng.Intn(15)
		n := 1 + rng.Intn(15)
		a := randCSR(rng, m, k, 0.3)
		b := randCSR(rng, k, n, 0.3)
		for _, threads := range threadCounts {
			got := closureSpGEMM(a, b, mul, add, Mask{}, threads, KernelAuto)
			if !got.Valid() {
				t.Fatalf("invalid result (threads=%d)", threads)
			}
			// dense reference
			av, ap := denseOf(a)
			bv, bp := denseOf(b)
			wv := make([][]int, m)
			wp := make([][]bool, m)
			for i := 0; i < m; i++ {
				wv[i] = make([]int, n)
				wp[i] = make([]bool, n)
				for kk := 0; kk < k; kk++ {
					if !ap[i][kk] {
						continue
					}
					for j := 0; j < n; j++ {
						if !bp[kk][j] {
							continue
						}
						wv[i][j] += av[i][kk] * bv[kk][j]
						wp[i][j] = true
					}
				}
			}
			want := fromDense(wv, wp)
			if !EqualFunc(got, want, func(a, b int) bool { return a == b }) {
				t.Fatalf("SpGEMM mismatch (trial %d, threads %d)", trial, threads)
			}
		}
	}
}

func TestSpGEMMMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	add := func(a, b int) int { return a + b }
	mul := func(a, b int) int { return a * b }
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(12)
		a := randCSR(rng, n, n, 0.4)
		b := randCSR(rng, n, n, 0.4)
		mask := randBoolCSR(rng, n, n, 0.5)
		for _, structural := range []bool{false, true} {
			for _, comp := range []bool{false, true} {
				mk := Mask{M: mask, Structural: structural, Complement: comp}
				got := closureSpGEMM(a, b, mul, add, mk, 2, KernelAuto)
				full := closureSpGEMM(a, b, mul, add, Mask{}, 1, KernelAuto)
				want := MaskApplyM(NewCSR[int](n, n), full, mk, true, Exec{})
				if !EqualFunc(got, want, func(a, b int) bool { return a == b }) {
					t.Fatalf("masked SpGEMM != post-filtered (s=%v c=%v)", structural, comp)
				}
			}
		}
	}
}

func TestEWiseKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		m := 1 + rng.Intn(15)
		n := 1 + rng.Intn(15)
		a := randCSR(rng, m, n, 0.4)
		b := randCSR(rng, m, n, 0.4)
		add := func(x, y int) int { return x + y }
		mul := func(x, y int) int { return x * y }
		for _, threads := range threadCounts {
			gotA := EWiseAddM(a, b, add, par(threads))
			gotM := EWiseMultM(a, b, mul, par(threads))
			av, ap := denseOf(a)
			bv, bp := denseOf(b)
			sv := make([][]int, m)
			sp := make([][]bool, m)
			pv := make([][]int, m)
			pp := make([][]bool, m)
			for i := 0; i < m; i++ {
				sv[i] = make([]int, n)
				sp[i] = make([]bool, n)
				pv[i] = make([]int, n)
				pp[i] = make([]bool, n)
				for j := 0; j < n; j++ {
					switch {
					case ap[i][j] && bp[i][j]:
						sv[i][j] = av[i][j] + bv[i][j]
						sp[i][j] = true
						pv[i][j] = av[i][j] * bv[i][j]
						pp[i][j] = true
					case ap[i][j]:
						sv[i][j] = av[i][j]
						sp[i][j] = true
					case bp[i][j]:
						sv[i][j] = bv[i][j]
						sp[i][j] = true
					}
				}
			}
			if !EqualFunc(gotA, fromDense(sv, sp), func(a, b int) bool { return a == b }) {
				t.Fatalf("EWiseAddM mismatch (threads %d)", threads)
			}
			if !EqualFunc(gotM, fromDense(pv, pp), func(a, b int) bool { return a == b }) {
				t.Fatalf("EWiseMultM mismatch (threads %d)", threads)
			}
		}
	}
}

func TestMaskApplyMSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		m := 1 + rng.Intn(10)
		n := 1 + rng.Intn(10)
		c := randCSR(rng, m, n, 0.4)
		z := randCSR(rng, m, n, 0.4)
		mask := randBoolCSR(rng, m, n, 0.5)
		for _, structural := range []bool{false, true} {
			for _, comp := range []bool{false, true} {
				for _, replace := range []bool{false, true} {
					mk := Mask{M: mask, Structural: structural, Complement: comp}
					got := MaskApplyM(c, z, mk, replace, par(2))
					if !got.Valid() {
						t.Fatal("invalid mask result")
					}
					cv, cp := denseOf(c)
					zv, zp := denseOf(z)
					mv, mp := make([][]bool, m), make([][]bool, m)
					for i := range mv {
						mv[i] = make([]bool, n)
						mp[i] = make([]bool, n)
					}
					for i := 0; i < m; i++ {
						ind, val := mask.Row(i)
						for k := range ind {
							mp[i][ind[k]] = true
							mv[i][ind[k]] = val[k]
						}
					}
					wv := make([][]int, m)
					wp := make([][]bool, m)
					for i := 0; i < m; i++ {
						wv[i] = make([]int, n)
						wp[i] = make([]bool, n)
						for j := 0; j < n; j++ {
							mt := mp[i][j]
							if !structural {
								mt = mt && mv[i][j]
							}
							if comp {
								mt = !mt
							}
							if mt {
								if zp[i][j] {
									wv[i][j], wp[i][j] = zv[i][j], true
								}
							} else if !replace && cp[i][j] {
								wv[i][j], wp[i][j] = cv[i][j], true
							}
						}
					}
					if !EqualFunc(got, fromDense(wv, wp), func(a, b int) bool { return a == b }) {
						t.Fatalf("MaskApplyM mismatch (s=%v c=%v r=%v)", structural, comp, replace)
					}
				}
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		a := randCSR(rng, 1+rng.Intn(20), 1+rng.Intn(20), 0.3)
		tt := Transpose(Transpose(a))
		if !EqualFunc(a, tt, func(a, b int) bool { return a == b }) {
			t.Fatal("transpose not an involution")
		}
		tr := Transpose(a)
		if !tr.Valid() {
			t.Fatal("invalid transpose")
		}
		// entry correspondence
		for i := 0; i < a.Rows; i++ {
			ind, val := a.Row(i)
			for k := range ind {
				if v, ok := tr.Get(ind[k], i); !ok || v != val[k] {
					t.Fatal("transpose entry mismatch")
				}
			}
		}
	}
}

func TestReduceKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	add := func(a, b int) int { return a + b }
	for trial := 0; trial < 20; trial++ {
		a := randCSR(rng, 1+rng.Intn(15), 1+rng.Intn(15), 0.4)
		for _, threads := range threadCounts {
			rows := ReduceRows(MonGeneric, a, add, par(threads))
			cols := ReduceCols(a, add, par(threads))
			all, ok := ReduceAll(MonGeneric, a, add, par(threads))
			sum := 0
			rowSums := make([]int, a.Rows)
			rowAny := make([]bool, a.Rows)
			colSums := make([]int, a.Cols)
			colAny := make([]bool, a.Cols)
			for i := 0; i < a.Rows; i++ {
				ind, val := a.Row(i)
				for k := range ind {
					sum += val[k]
					rowSums[i] += val[k]
					rowAny[i] = true
					colSums[ind[k]] += val[k]
					colAny[ind[k]] = true
				}
			}
			if ok != (a.NNZ() > 0) || (ok && all != sum) {
				t.Fatalf("ReduceAll = %d,%v want %d", all, ok, sum)
			}
			wantRows := GatherVec(rowSums, rowAny)
			wantCols := GatherVec(colSums, colAny)
			if !VecEqualFunc(rows, wantRows, func(a, b int) bool { return a == b }) {
				t.Fatalf("ReduceRows mismatch (threads %d)", threads)
			}
			if !VecEqualFunc(cols, wantCols, func(a, b int) bool { return a == b }) {
				t.Fatalf("ReduceCols mismatch (threads %d)", threads)
			}
		}
	}
}

func TestKronSmall(t *testing.T) {
	a, _ := BuildCSR(2, 2, []int{0, 1}, []int{1, 0}, []int{2, 3}, nil)
	b, _ := BuildCSR(2, 2, []int{0, 1}, []int{0, 1}, []int{5, 7}, nil)
	k, err := Kron(a, b, func(x, y int) int { return x * y }, par(2))
	if err != nil {
		t.Fatal(err)
	}
	if !k.Valid() || k.Rows != 4 || k.Cols != 4 || k.NNZ() != 4 {
		t.Fatalf("kron shape/nnz wrong: %dx%d nnz=%d", k.Rows, k.Cols, k.NNZ())
	}
	// a(0,1)=2 × b(0,0)=5 -> (0, 2) = 10
	if v, ok := k.Get(0, 2); !ok || v != 10 {
		t.Fatalf("k(0,2)=%d,%v", v, ok)
	}
	// a(1,0)=3 × b(1,1)=7 -> (3, 1) = 21
	if v, ok := k.Get(3, 1); !ok || v != 21 {
		t.Fatalf("k(3,1)=%d,%v", v, ok)
	}
}

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

func TestExtractMAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(12)
		n := 2 + rng.Intn(12)
		a := randCSR(rng, m, n, 0.4)
		nr := 1 + rng.Intn(m+2)
		nc := 1 + rng.Intn(n+2)
		rows := make([]int, nr)
		cols := make([]int, nc)
		for k := range rows {
			rows[k] = rng.Intn(m) // may repeat, unsorted
		}
		for k := range cols {
			cols[k] = rng.Intn(n)
		}
		got, err := ExtractM(a, rows, cols, par(2))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Valid() {
			t.Fatal("invalid extract result")
		}
		av, ap := denseOf(a)
		wv := make([][]int, nr)
		wp := make([][]bool, nr)
		for i := range wv {
			wv[i] = make([]int, nc)
			wp[i] = make([]bool, nc)
			for j := range wv[i] {
				if ap[rows[i]][cols[j]] {
					wv[i][j] = av[rows[i]][cols[j]]
					wp[i][j] = true
				}
			}
		}
		if !EqualFunc(got, fromDense(wv, wp), func(a, b int) bool { return a == b }) {
			t.Fatalf("ExtractM mismatch (trial %d)", trial)
		}
	}
}

func TestAssignMAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(10)
		n := 2 + rng.Intn(10)
		c := randCSR(rng, m, n, 0.4)
		nr := 1 + rng.Intn(m)
		nc := 1 + rng.Intn(n)
		// distinct row/col targets (duplicates are undefined per spec)
		rows := rng.Perm(m)[:nr]
		cols := rng.Perm(n)[:nc]
		a := randCSR(rng, nr, nc, 0.4)
		for _, withAccum := range []bool{false, true} {
			var accum func(int, int) int
			if withAccum {
				accum = func(x, y int) int { return x + y }
			}
			got, err := AssignM(c, a, rows, cols, accum)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Valid() {
				t.Fatal("invalid assign result")
			}
			cv, cp := denseOf(c)
			av, ap := denseOf(a)
			inRow := make(map[int]int)
			for i, r := range rows {
				inRow[r] = i
			}
			inCol := make(map[int]int)
			for j, cc := range cols {
				inCol[cc] = j
			}
			wv := make([][]int, m)
			wp := make([][]bool, m)
			for i := 0; i < m; i++ {
				wv[i] = make([]int, n)
				wp[i] = make([]bool, n)
				for j := 0; j < n; j++ {
					ai, rin := inRow[i]
					aj, cin := inCol[j]
					if rin && cin {
						hasA := ap[ai][aj]
						hasC := cp[i][j]
						switch {
						case hasA && hasC && withAccum:
							wv[i][j], wp[i][j] = cv[i][j]+av[ai][aj], true
						case hasA:
							wv[i][j], wp[i][j] = av[ai][aj], true
						case hasC && withAccum:
							wv[i][j], wp[i][j] = cv[i][j], true
						}
					} else if cp[i][j] {
						wv[i][j], wp[i][j] = cv[i][j], true
					}
				}
			}
			if !EqualFunc(got, fromDense(wv, wp), func(a, b int) bool { return a == b }) {
				t.Fatalf("AssignM mismatch (trial %d accum %v)", trial, withAccum)
			}
		}
	}
}

func TestAssignScalarMAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(10)
		n := 2 + rng.Intn(10)
		c := randCSR(rng, m, n, 0.4)
		rows := rng.Perm(m)[:1+rng.Intn(m)]
		cols := rng.Perm(n)[:1+rng.Intn(n)]
		for _, withAccum := range []bool{false, true} {
			var accum func(int, int) int
			if withAccum {
				accum = func(x, y int) int { return x + y }
			}
			got, err := AssignScalarM(c, 100, rows, cols, accum)
			if err != nil {
				t.Fatal(err)
			}
			cv, cp := denseOf(c)
			inRow := map[int]bool{}
			for _, r := range rows {
				inRow[r] = true
			}
			inCol := map[int]bool{}
			for _, cc := range cols {
				inCol[cc] = true
			}
			wv := make([][]int, m)
			wp := make([][]bool, m)
			for i := 0; i < m; i++ {
				wv[i] = make([]int, n)
				wp[i] = make([]bool, n)
				for j := 0; j < n; j++ {
					if inRow[i] && inCol[j] {
						if withAccum && cp[i][j] {
							wv[i][j] = cv[i][j] + 100
						} else {
							wv[i][j] = 100
						}
						wp[i][j] = true
					} else if cp[i][j] {
						wv[i][j], wp[i][j] = cv[i][j], true
					}
				}
			}
			if !EqualFunc(got, fromDense(wv, wp), func(a, b int) bool { return a == b }) {
				t.Fatalf("AssignScalarM mismatch (trial %d accum %v)", trial, withAccum)
			}
		}
	}
}

func TestSelectAndApplyKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randCSR(rng, 12, 9, 0.5)
	for _, threads := range threadCounts {
		// select strict upper
		sel := SelectM(a, func(v int, i, j int, s int) bool { return j > i+s }, 0, par(threads))
		if !sel.Valid() {
			t.Fatal("invalid select")
		}
		for i := 0; i < sel.Rows; i++ {
			ind, _ := sel.Row(i)
			for _, j := range ind {
				if j <= i {
					t.Fatal("select kept a lower entry")
				}
			}
		}
		// select ∪ complement-select partitions the input
		other := SelectM(a, func(v int, i, j int, s int) bool { return j <= i+s }, 0, par(threads))
		if sel.NNZ()+other.NNZ() != a.NNZ() {
			t.Fatal("select does not partition")
		}
		// apply doubles values, preserves pattern
		app := ApplyM(a, func(v int) int { return 2 * v }, par(threads))
		if app.NNZ() != a.NNZ() {
			t.Fatal("apply changed pattern")
		}
		for k := range a.Val {
			if app.Val[k] != 2*a.Val[k] {
				t.Fatal("apply value wrong")
			}
		}
		// index apply sees correct coordinates
		idx := ApplyIndexM(a, func(v int, i, j int, s int) int { return i*1000 + j }, 0, par(threads))
		for i := 0; i < a.Rows; i++ {
			ind, val := idx.Row(i)
			for k := range ind {
				if val[k] != i*1000+ind[k] {
					t.Fatal("index apply coordinates wrong")
				}
			}
		}
	}
}

func TestExtractColV(t *testing.T) {
	a, _ := BuildCSR(3, 3, []int{0, 1, 2}, []int{1, 1, 2}, []int{5, 6, 7}, nil)
	v, err := ExtractColV(a, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 2 {
		t.Fatalf("nnz=%d", v.NNZ())
	}
	if x, _ := v.Get(0); x != 5 {
		t.Fatalf("v(0)=%d", x)
	}
	sub, err := ExtractColV(a, []int{2, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if x, ok := sub.Get(1); !ok || x != 5 {
		t.Fatalf("gathered v(1)=%d,%v", x, ok)
	}
}

func TestDiagKernel(t *testing.T) {
	v, _ := BuildVec(3, []int{0, 2}, []int{1, 3}, nil)
	d := Diag(v, 0)
	if d.Rows != 3 || d.NNZ() != 2 {
		t.Fatalf("diag shape %d nnz %d", d.Rows, d.NNZ())
	}
	if x, _ := d.Get(2, 2); x != 3 {
		t.Fatal("diag entry wrong")
	}
	up := Diag(v, 1)
	if up.Rows != 4 {
		t.Fatalf("superdiag rows=%d", up.Rows)
	}
	if x, ok := up.Get(0, 1); !ok || x != 1 {
		t.Fatal("superdiag entry wrong")
	}
	lo := Diag(v, -2)
	if x, ok := lo.Get(2, 0); !ok || x != 1 {
		t.Fatal("subdiag entry wrong")
	}
}
