package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestMergeTuplesAgainstMapReference: pending-update folding agrees with a
// straightforward map-based model for random update streams.
func TestMergeTuplesAgainstMapReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(8)
		base := randCSR(rng, rows, cols, 0.4)
		model := map[[2]int]int{}
		for i := 0; i < rows; i++ {
			ind, val := base.Row(i)
			for k := range ind {
				model[[2]int{i, ind[k]}] = val[k]
			}
		}
		var updates []Tuple[int]
		for k := 0; k < rng.Intn(30); k++ {
			i, j := rng.Intn(rows), rng.Intn(cols)
			if rng.Intn(4) == 0 {
				updates = append(updates, Tuple[int]{Row: i, Col: j, Del: true})
				delete(model, [2]int{i, j})
			} else {
				v := rng.Intn(100)
				updates = append(updates, Tuple[int]{Row: i, Col: j, Val: v})
				model[[2]int{i, j}] = v
			}
		}
		got, err := MergeTuples(base, updates)
		if err != nil || !got.Valid() {
			return false
		}
		if got.NNZ() != len(model) {
			return false
		}
		for key, want := range model {
			v, ok := got.Get(key[0], key[1])
			if !ok || v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestSpGEMMAssociativity: (A·B)·C = A·(B·C) over plus-times on small
// random operands (integer arithmetic, so equality is exact).
func TestSpGEMMAssociativity(t *testing.T) {
	add := func(a, b int) int { return a + b }
	mul := func(a, b int) int { return a * b }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		k1 := 1 + rng.Intn(8)
		k2 := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		a := randCSR(rng, m, k1, 0.4)
		b := randCSR(rng, k1, k2, 0.4)
		c := randCSR(rng, k2, n, 0.4)
		left := closureSpGEMM(closureSpGEMM(a, b, mul, add, Mask{}, 2, KernelAuto), c, mul, add, Mask{}, 2, KernelAuto)
		right := closureSpGEMM(a, closureSpGEMM(b, c, mul, add, Mask{}, 2, KernelAuto), mul, add, Mask{}, 2, KernelAuto)
		// Patterns can differ when a dot product sums to zero — with
		// positive random values (1..9) that cannot happen here.
		return EqualFunc(left, right, func(x, y int) bool { return x == y })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSpGEMMDistributesOverEWiseAdd: A·(B ⊕ C) = A·B ⊕ A·C.
func TestSpGEMMDistributesOverEWiseAdd(t *testing.T) {
	add := func(a, b int) int { return a + b }
	mul := func(a, b int) int { return a * b }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		a := randCSR(rng, m, k, 0.4)
		b := randCSR(rng, k, n, 0.4)
		c := randCSR(rng, k, n, 0.4)
		left := closureSpGEMM(a, EWiseAddM(b, c, add, Exec{}), mul, add, Mask{}, 2, KernelAuto)
		right := EWiseAddM(
			closureSpGEMM(a, b, mul, add, Mask{}, 2, KernelAuto),
			closureSpGEMM(a, c, mul, add, Mask{}, 2, KernelAuto), add, par(2))
		return EqualFunc(left, right, func(x, y int) bool { return x == y })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTransposeDistributesOverProduct: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestTransposeDistributesOverProduct(t *testing.T) {
	add := func(a, b int) int { return a + b }
	mul := func(a, b int) int { return a * b }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(10)
		k := 1 + rng.Intn(10)
		n := 1 + rng.Intn(10)
		a := randCSR(rng, m, k, 0.4)
		b := randCSR(rng, k, n, 0.4)
		left := Transpose(closureSpGEMM(a, b, mul, add, Mask{}, 2, KernelAuto))
		right := closureSpGEMM(Transpose(b), Transpose(a), mul, add, Mask{}, 2, KernelAuto)
		return EqualFunc(left, right, func(x, y int) bool { return x == y })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMaskApplyIdempotent: applying the same mask twice equals once.
func TestMaskApplyIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(10)
		n := 1 + rng.Intn(10)
		c := randCSR(rng, m, n, 0.4)
		z := randCSR(rng, m, n, 0.4)
		mask := Mask{M: randBoolCSR(rng, m, n, 0.5), Structural: rng.Intn(2) == 0}
		once := MaskApplyM(c, z, mask, true, par(2))
		twice := MaskApplyM(c, once, mask, true, par(2))
		return EqualFunc(once, twice, func(x, y int) bool { return x == y })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestVecMergeAgainstMap mirrors TestMergeTuplesAgainstMapReference for
// vectors.
func TestVecMergeAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		base := randVec(rng, n, 0.4)
		model := map[int]int{}
		for k, i := range base.Ind {
			model[i] = base.Val[k]
		}
		var updates []VTuple[int]
		for k := 0; k < rng.Intn(25); k++ {
			i := rng.Intn(n)
			if rng.Intn(4) == 0 {
				updates = append(updates, VTuple[int]{Idx: i, Del: true})
				delete(model, i)
			} else {
				v := rng.Intn(100)
				updates = append(updates, VTuple[int]{Idx: i, Val: v})
				model[i] = v
			}
		}
		got, err := MergeVTuples(base, updates)
		if err != nil || !(got.Valid() || got.full() && len(got.Val) == n) || got.NNZ() != len(model) {
			return false
		}
		for i, want := range model {
			v, ok := got.Get(i)
			if !ok || v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestResizeRoundTrip: growing then shrinking back preserves entries that
// fit, and Resize never produces an invalid structure.
func TestResizeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(10)
		cols := 1 + rng.Intn(10)
		a := randCSR(rng, rows, cols, 0.4)
		big := a.Resize(rows+5, cols+5)
		back := big.Resize(rows, cols)
		return big.Valid() && back.Valid() &&
			EqualFunc(a, back, func(x, y int) bool { return x == y })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
