package grb

import (
	"math/rand"
	"slices"
	"testing"
)

func TestRowAssign(t *testing.T) {
	setMode(t, Blocking)
	c := mustMatrix(t, 3, 4,
		[]Index{0, 1, 1, 2}, []Index{0, 1, 3, 2}, []int{1, 2, 3, 4})
	u := mustVector(t, 4, []Index{0, 2}, []int{10, 30})

	// pure row assignment replaces the whole row's region
	c1 := ck1(c.Dup())
	if err := RowAssign(c1, nil, nil, u, 1, All, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c1,
		[]Index{0, 1, 1, 2}, []Index{0, 0, 2, 2}, []int{1, 10, 30, 4})

	// partial columns with accumulation
	c2 := ck1(c.Dup())
	u2 := mustVector(t, 2, []Index{0, 1}, []int{100, 200})
	if err := RowAssign(c2, nil, Plus[int], u2, 1, []Index{1, 3}, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c2,
		[]Index{0, 1, 1, 2}, []Index{0, 1, 3, 2}, []int{1, 102, 203, 4})

	// masked row assign (mask over the row)
	c3 := ck1(c.Dup())
	mask := mustVector(t, 4, []Index{0}, []bool{true})
	if err := RowAssign(c3, mask, nil, u, 1, All, DescS); err != nil {
		t.Fatal(err)
	}
	// only column 0 admitted: row 1 keeps (1,1)=2,(1,3)=3 and gains (1,0)=10
	matrixEquals(t, c3,
		[]Index{0, 1, 1, 1, 2}, []Index{0, 0, 1, 3, 2}, []int{1, 10, 2, 3, 4})

	// errors
	wantCode(t, RowAssign(c1, nil, nil, u, 5, All, nil), InvalidIndex)
	wantCode(t, RowAssign(c1, nil, nil, u, 0, []Index{9}, nil), InvalidIndex)
	wantCode(t, RowAssign(c1, nil, nil, u2, 0, All, nil), DimensionMismatch)
}

func TestColAssign(t *testing.T) {
	setMode(t, Blocking)
	c := mustMatrix(t, 4, 3,
		[]Index{0, 1, 3, 2}, []Index{0, 1, 1, 2}, []int{1, 2, 4, 3})
	u := mustVector(t, 4, []Index{1, 2}, []int{20, 30})

	c1 := ck1(c.Dup())
	if err := ColAssign(c1, nil, nil, u, All, 1, nil); err != nil {
		t.Fatal(err)
	}
	// column 1 becomes {1:20, 2:30} (old (3,1) deleted)
	matrixEquals(t, c1,
		[]Index{0, 1, 2, 2}, []Index{0, 1, 1, 2}, []int{1, 20, 30, 3})

	// partial rows with accum
	c2 := ck1(c.Dup())
	u2 := mustVector(t, 2, []Index{0, 1}, []int{5, 7})
	if err := ColAssign(c2, nil, Plus[int], u2, []Index{1, 3}, 1, nil); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c2,
		[]Index{0, 1, 2, 3}, []Index{0, 1, 2, 1}, []int{1, 7, 3, 11})

	// masked with replace: mask over the column
	c3 := ck1(c.Dup())
	mask := mustVector(t, 4, []Index{1}, []bool{true})
	if err := ColAssign(c3, mask, nil, u, All, 1, DescRS); err != nil {
		t.Fatal(err)
	}
	// only row 1 of column 1 admitted (20); (3,1) deleted by replace
	matrixEquals(t, c3,
		[]Index{0, 1, 2}, []Index{0, 1, 2}, []int{1, 20, 3})

	wantCode(t, ColAssign(c1, nil, nil, u, All, 7, nil), InvalidIndex)
	wantCode(t, ColAssign(c1, nil, nil, u, []Index{9, 0, 1, 2}, 1, nil), InvalidIndex)
	wantCode(t, ColAssign(c1, nil, nil, u2, All, 1, nil), DimensionMismatch)
}

// TestRowColAssignConsistency: ColAssign on C equals RowAssign on Cᵀ.
func TestRowColAssignConsistency(t *testing.T) {
	setMode(t, Blocking)
	c := mustMatrix(t, 3, 3,
		[]Index{0, 1, 2}, []Index{1, 2, 0}, []int{1, 2, 3})
	u := mustVector(t, 3, []Index{0, 2}, []int{9, 8})

	viaCol := ck1(c.Dup())
	if err := ColAssign(viaCol, nil, nil, u, All, 2, nil); err != nil {
		t.Fatal(err)
	}
	ct := ck1(NewMatrix[int](3, 3))
	if err := Transpose(ct, nil, nil, c, nil); err != nil {
		t.Fatal(err)
	}
	if err := RowAssign(ct, nil, nil, u, 2, All, nil); err != nil {
		t.Fatal(err)
	}
	back := ck1(NewMatrix[int](3, 3))
	if err := Transpose(back, nil, nil, ct, nil); err != nil {
		t.Fatal(err)
	}
	ai, aj, ax := ck3(viaCol.ExtractTuples())
	bi, bj, bx := ck3(back.ExtractTuples())
	if len(ai) != len(bi) {
		t.Fatalf("nvals %d vs %d", len(ai), len(bi))
	}
	for k := range ai {
		if ai[k] != bi[k] || aj[k] != bj[k] || ax[k] != bx[k] {
			t.Fatal("ColAssign != transpose∘RowAssign∘transpose")
		}
	}
}

// TestColAssignMatchesRowAssignOnTheTranspose: over random matrices, row
// lists (repeats included), masks, descriptors and accumulators, ColAssign
// on C equals RowAssign on Cᵀ transposed back — the route ColAssign took
// before it assigned into the column in place — and, where the row list has
// no repeats, a map oracle of GrB_Col_assign.
func TestColAssignMatchesRowAssignOnTheTranspose(t *testing.T) {
	setMode(t, Blocking)
	rng := rand.New(rand.NewSource(7))
	descs := []*Descriptor{nil, DescR, DescS, DescC, DescRS, DescRC, DescSC, DescRSC}
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(7), 1+rng.Intn(7)
		c := ck1(NewMatrix[int](rows, cols))
		for k := rng.Intn(rows * cols); k > 0; k-- {
			ck(c.SetElement(rng.Intn(100), rng.Intn(rows), rng.Intn(cols)))
		}
		var ri []Index // All
		if rng.Intn(2) == 0 {
			ri = make([]Index, 1+rng.Intn(rows))
			for k := range ri {
				ri[k] = rng.Intn(rows)
			}
		}
		n := rows
		if ri != nil {
			n = len(ri)
		}
		u := ck1(NewVector[int](n))
		for k := rng.Intn(n + 1); k > 0; k-- {
			ck(u.SetElement(rng.Intn(100), rng.Intn(n)))
		}
		var mask *Vector[bool]
		if rng.Intn(3) > 0 {
			mask = ck1(NewVector[bool](rows))
			for k := rng.Intn(rows + 1); k > 0; k-- {
				ck(mask.SetElement(rng.Intn(2) == 0, rng.Intn(rows)))
			}
		}
		var accum BinaryOp[int, int, int]
		if rng.Intn(2) == 0 {
			accum = Plus[int]
		}
		j, desc := rng.Intn(cols), descs[rng.Intn(len(descs))]

		viaCol := ck1(c.Dup())
		ck(ColAssign(viaCol, mask, accum, u, ri, j, desc))
		ct := ck1(NewMatrix[int](cols, rows))
		ck(Transpose(ct, nil, nil, c, nil))
		ck(RowAssign(ct, mask, accum, u, j, ri, desc))
		back := ck1(NewMatrix[int](rows, cols))
		ck(Transpose(back, nil, nil, ct, nil))
		ai, aj, ax := ck3(viaCol.ExtractTuples())
		bi, bj, bx := ck3(back.ExtractTuples())
		if !slices.Equal(ai, bi) || !slices.Equal(aj, bj) || !slices.Equal(ax, bx) {
			t.Fatalf("trial %d: %dx%d, j=%d, rows %v, desc %+v: ColAssign gave %v %v %v, RowAssign on the transpose %v %v %v",
				trial, rows, cols, j, ri, desc, ai, aj, ax, bi, bj, bx)
		}
		sorted := slices.Clone(ri)
		slices.Sort(sorted)
		if len(slices.Compact(sorted)) != len(ri) {
			continue
		}
		want, outside := colAssignOracle(t, c, mask, accum, u, ri, j, desc), 0
		for k := range ai {
			if aj[k] != j {
				if x, ok := ck2(c.ExtractElement(ai[k], aj[k])); !ok || x != ax[k] {
					t.Fatalf("trial %d: C(%d,%d) = %d outside column %d, was %d, %v", trial, ai[k], aj[k], ax[k], j, x, ok)
				}
				outside++
				continue
			}
			if x, ok := want[ai[k]]; !ok || x != ax[k] {
				t.Fatalf("trial %d: C(%d,%d) = %d, oracle %v", trial, ai[k], j, ax[k], want)
			}
			delete(want, ai[k])
		}
		_, cjs, _ := ck3(c.ExtractTuples())
		before := len(cjs) - len(slices.DeleteFunc(cjs, func(cj Index) bool { return cj != j }))
		if len(want) != 0 || outside != before {
			t.Fatalf("trial %d: column %d lacks oracle entries %v; %d entries outside it, were %d", trial, j, want, outside, before)
		}
	}
}

// colAssignOracle is column j of C after GrB_Col_assign(C, mask, accum, u,
// ri, j, desc), for a row list without repeats, from maps.
func colAssignOracle(t *testing.T, c *Matrix[int], mask *Vector[bool], accum BinaryOp[int, int, int],
	u *Vector[int], ri []Index, j Index, desc *Descriptor) map[Index]int {
	t.Helper()
	rows := ck1(c.Nrows())
	old, z := map[Index]int{}, map[Index]int{}
	for r := 0; r < rows; r++ {
		if x, ok := ck2(c.ExtractElement(r, j)); ok {
			old[r], z[r] = x, x
		}
	}
	for k := 0; k < ck1(u.Size()); k++ {
		r := k
		if ri != nil {
			r = ri[k]
		}
		x, ok := ck2(u.ExtractElement(k))
		switch o, had := old[r]; {
		case ok && had && accum != nil:
			z[r] = accum(o, x)
		case ok:
			z[r] = x
		case accum == nil:
			delete(z, r)
		}
	}
	d := desc
	if d == nil {
		d = &Descriptor{}
	}
	out := map[Index]int{}
	for r := 0; r < rows; r++ {
		admit := mask == nil
		if mask != nil {
			m, ok := ck2(mask.ExtractElement(r))
			admit = ok && (m || d.Structure)
		}
		if d.Complement {
			admit = !admit
		}
		src := z
		if !admit {
			if d.Replace {
				continue
			}
			src = old
		}
		if x, ok := src[r]; ok {
			out[r] = x
		}
	}
	return out
}

// TestRowColAssignFromEveryForm: the line a row or column assign writes back
// is read in whichever form its write-back left it — a bitmap u assigned
// whole is that bitmap, a full u that full vector — not through an Ind the
// form does not have.
func TestRowColAssignFromEveryForm(t *testing.T) {
	setMode(t, Blocking)
	const n = 130
	full := ck1(NewVector[float64](n))
	ck(VectorAssignScalar(full, nil, nil, 0.5, All, nil))
	for name, u := range map[string]*Vector[float64]{"bitmap": bitmapOwned(t, n, 2), "full": full} {
		want := entries(u)
		row, col := ck1(NewMatrix[float64](n, n)), ck1(NewMatrix[float64](n, n))
		ck(RowAssign(row, nil, nil, u, 7, All, nil))
		ck(ColAssign(col, nil, nil, u, All, 9, nil))
		for what, m := range map[string]*Matrix[float64]{"row 7": row, "column 9": col} {
			I, J, X := ck3(m.ExtractTuples())
			if len(X) != len(want) {
				t.Fatalf("%s u, %s: %d entries, want %d", name, what, len(X), len(want))
			}
			for k := range X {
				i, line := J[k], I[k]
				if what == "column 9" {
					i, line = I[k], J[k]
				}
				if x, ok := want[i]; !ok || x != X[k] || line != map[string]Index{"row 7": 7, "column 9": 9}[what] {
					t.Fatalf("%s u, %s: entry (%d,%d) = %v, want u(%d) = %v on the line", name, what, I[k], J[k], X[k], i, x)
				}
			}
		}
	}
}
