package grb

import (
	"math/rand"
	"testing"
)

// Dense reference machinery for validating the full operation pipeline
// (operation ⨯ accumulator ⨯ mask ⨯ descriptor) in the public API.

type denseM struct {
	rows, cols int
	val        [][]int
	ok         [][]bool
}

func newDense(rows, cols int) *denseM {
	d := &denseM{rows: rows, cols: cols, val: make([][]int, rows), ok: make([][]bool, rows)}
	for i := range d.val {
		d.val[i] = make([]int, cols)
		d.ok[i] = make([]bool, cols)
	}
	return d
}

func randDense(rng *rand.Rand, rows, cols int, density float64) *denseM {
	d := newDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				d.val[i][j] = 1 + rng.Intn(9)
				d.ok[i][j] = true
			}
		}
	}
	return d
}

func randDenseBool(rng *rand.Rand, rows, cols int, density float64) ([][]bool, [][]bool) {
	val := make([][]bool, rows)
	ok := make([][]bool, rows)
	for i := 0; i < rows; i++ {
		val[i] = make([]bool, cols)
		ok[i] = make([]bool, cols)
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				ok[i][j] = true
				val[i][j] = rng.Intn(2) == 0
			}
		}
	}
	return val, ok
}

func (d *denseM) toMatrix(t *testing.T) *Matrix[int] {
	t.Helper()
	var I, J []Index
	var X []int
	for i := 0; i < d.rows; i++ {
		for j := 0; j < d.cols; j++ {
			if d.ok[i][j] {
				I = append(I, i)
				J = append(J, j)
				X = append(X, d.val[i][j])
			}
		}
	}
	return mustMatrix(t, d.rows, d.cols, I, J, X)
}

func boolMatrix(t *testing.T, val, ok [][]bool) *Matrix[bool] {
	t.Helper()
	rows := len(val)
	cols := len(val[0])
	var I, J []Index
	var X []bool
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if ok[i][j] {
				I = append(I, i)
				J = append(J, j)
				X = append(X, val[i][j])
			}
		}
	}
	m, err := NewMatrix[bool](rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	if len(I) > 0 {
		if err := m.Build(I, J, X, nil); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func (d *denseM) transpose() *denseM {
	out := newDense(d.cols, d.rows)
	for i := 0; i < d.rows; i++ {
		for j := 0; j < d.cols; j++ {
			out.val[j][i] = d.val[i][j]
			out.ok[j][i] = d.ok[i][j]
		}
	}
	return out
}

// refPipeline applies accumulate-then-mask to a computed candidate zd over
// old output cd, mirroring the GraphBLAS operation pipeline.
func refPipeline(cd, td *denseM, maskVal, maskOk [][]bool, d Descriptor, withAccum bool) *denseM {
	zd := newDense(cd.rows, cd.cols)
	for i := 0; i < cd.rows; i++ {
		for j := 0; j < cd.cols; j++ {
			switch {
			case withAccum && cd.ok[i][j] && td.ok[i][j]:
				zd.val[i][j], zd.ok[i][j] = cd.val[i][j]+td.val[i][j], true
			case withAccum && cd.ok[i][j]:
				zd.val[i][j], zd.ok[i][j] = cd.val[i][j], true
			case td.ok[i][j]:
				zd.val[i][j], zd.ok[i][j] = td.val[i][j], true
			}
		}
	}
	out := newDense(cd.rows, cd.cols)
	for i := 0; i < cd.rows; i++ {
		for j := 0; j < cd.cols; j++ {
			mt := true
			if maskOk != nil {
				mt = maskOk[i][j]
				if !d.Structure {
					mt = mt && maskVal[i][j]
				}
			}
			if d.Complement {
				mt = !mt
			}
			if mt {
				if zd.ok[i][j] {
					out.val[i][j], out.ok[i][j] = zd.val[i][j], true
				}
			} else if !d.Replace && cd.ok[i][j] {
				out.val[i][j], out.ok[i][j] = cd.val[i][j], true
			}
		}
	}
	return out
}

func checkAgainstDense(t *testing.T, got *Matrix[int], want *denseM, label string) {
	t.Helper()
	I, J, X, err := got.ExtractTuples()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	k := 0
	for i := 0; i < want.rows; i++ {
		for j := 0; j < want.cols; j++ {
			if want.ok[i][j] {
				if k >= len(I) || I[k] != i || J[k] != j || X[k] != want.val[i][j] {
					t.Fatalf("%s: mismatch at (%d,%d)", label, i, j)
				}
				k++
			}
		}
	}
	if k != len(I) {
		t.Fatalf("%s: %d extra entries", label, len(I)-k)
	}
}

// TestMxMFullPipeline sweeps mxm across accumulate/mask/descriptor
// combinations against the dense reference.
func TestMxMFullPipeline(t *testing.T) {
	setMode(t, Blocking)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		m := 2 + rng.Intn(8)
		k := 2 + rng.Intn(8)
		n := 2 + rng.Intn(8)
		ad := randDense(rng, m, k, 0.4)
		bd := randDense(rng, k, n, 0.4)
		cd := randDense(rng, m, n, 0.3)
		maskVal, maskOk := randDenseBool(rng, m, n, 0.5)
		for _, useMask := range []bool{false, true} {
			for _, withAccum := range []bool{false, true} {
				for _, desc := range []*Descriptor{nil, DescR, DescS, DescC, DescRSC} {
					a := ad.toMatrix(t)
					b := bd.toMatrix(t)
					c := cd.toMatrix(t)
					var mask *Matrix[bool]
					var mv, mo [][]bool
					if useMask {
						mask = boolMatrix(t, maskVal, maskOk)
						mv, mo = maskVal, maskOk
					}
					var accum BinaryOp[int, int, int]
					if withAccum {
						accum = Plus[int]
					}
					if err := MxM(c, mask, accum, PlusTimes[int](), a, b, desc); err != nil {
						t.Fatal(err)
					}
					// dense product
					td := newDense(m, n)
					for i := 0; i < m; i++ {
						for kk := 0; kk < k; kk++ {
							if !ad.ok[i][kk] {
								continue
							}
							for j := 0; j < n; j++ {
								if bd.ok[kk][j] {
									td.val[i][j] += ad.val[i][kk] * bd.val[kk][j]
									td.ok[i][j] = true
								}
							}
						}
					}
					d := desc.get()
					if !useMask && d.Complement {
						// complement of a nil mask: nothing admitted
					}
					want := refPipeline(cd, td, mv, mo, d, withAccum)
					checkAgainstDense(t, c, want, "MxM")
				}
			}
		}
	}
}

func TestMxMTransposes(t *testing.T) {
	setMode(t, Blocking)
	rng := rand.New(rand.NewSource(18))
	ad := randDense(rng, 5, 7, 0.4)
	bd := randDense(rng, 5, 6, 0.4)
	// C = Aᵀ B : 7x6
	a := ad.toMatrix(t)
	b := bd.toMatrix(t)
	c := ck1(NewMatrix[int](7, 6))
	if err := MxM(c, nil, nil, PlusTimes[int](), a, b, DescT0); err != nil {
		t.Fatal(err)
	}
	at := ad.transpose()
	td := newDense(7, 6)
	for i := 0; i < 7; i++ {
		for kk := 0; kk < 5; kk++ {
			if !at.ok[i][kk] {
				continue
			}
			for j := 0; j < 6; j++ {
				if bd.ok[kk][j] {
					td.val[i][j] += at.val[i][kk] * bd.val[kk][j]
					td.ok[i][j] = true
				}
			}
		}
	}
	checkAgainstDense(t, c, td, "MxM T0")

	// C = A Bᵀ with A 5x7 needs B 6x7: reuse bd transposed shape
	b2d := randDense(rng, 6, 7, 0.4)
	b2 := b2d.toMatrix(t)
	c2 := ck1(NewMatrix[int](5, 6))
	if err := MxM(c2, nil, nil, PlusTimes[int](), a, b2, DescT1); err != nil {
		t.Fatal(err)
	}
	b2t := b2d.transpose()
	td2 := newDense(5, 6)
	for i := 0; i < 5; i++ {
		for kk := 0; kk < 7; kk++ {
			if !ad.ok[i][kk] {
				continue
			}
			for j := 0; j < 6; j++ {
				if b2t.ok[kk][j] {
					td2.val[i][j] += ad.val[i][kk] * b2t.val[kk][j]
					td2.ok[i][j] = true
				}
			}
		}
	}
	checkAgainstDense(t, c2, td2, "MxM T1")
}

func TestMxMDimensionErrors(t *testing.T) {
	setMode(t, Blocking)
	a := mustMatrix(t, 2, 3, nil, nil, []int(nil))
	b := mustMatrix(t, 2, 3, nil, nil, []int(nil))
	c := mustMatrix(t, 2, 3, nil, nil, []int(nil))
	wantCode(t, MxM(c, nil, nil, PlusTimes[int](), a, b, nil), DimensionMismatch)
	// Transposing B fixes the inner dimension but the output must be 2x2.
	wantCode(t, MxM(c, nil, nil, PlusTimes[int](), a, b, DescT1), DimensionMismatch)
	c22 := mustMatrix(t, 2, 2, nil, nil, []int(nil))
	if err := MxM(c22, nil, nil, PlusTimes[int](), a, b, DescT1); err != nil {
		t.Fatal(err)
	}
	// Mask shape must match the output.
	badMask := ck1(NewMatrix[bool](3, 2))
	wantCode(t, MxM(c22, badMask, nil, PlusTimes[int](), a, b, DescT1), DimensionMismatch)
	// Nil semiring operators.
	wantCode(t, MxM(c22, nil, nil, Semiring[int, int, int]{}, a, b, DescT1), NullPointer)
}
