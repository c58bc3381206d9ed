package grb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/grblas/grb/internal/sparse"
)

// The positional operators at the two domains selectTags names, in the
// order of cutOrder.
var (
	boolCuts = []IndexUnaryOp[bool, int, bool]{TriL[bool], TriU[bool], Diag[bool], Offdiag[bool],
		RowLE[bool], RowGT[bool], ColLE[bool], ColGT[bool]}
	floatCuts = []IndexUnaryOp[float64, int, bool]{TriL[float64], TriU[float64], Diag[float64], Offdiag[float64],
		RowLE[float64], RowGT[float64], ColLE[float64], ColGT[float64]}
	cutOrder = []sparse.Cut{sparse.CutTriL, sparse.CutTriU, sparse.CutDiag, sparse.CutOffdiag,
		sparse.CutRowLE, sparse.CutRowGT, sparse.CutColLE, sparse.CutColGT}
)

// TestSelectCutTagsByCodeIdentity: the sixteen tagged instantiations are
// recognised, and nothing else is — a closure wrapping TriL[bool], TriL at
// another domain, a value operator.
func TestSelectCutTagsByCodeIdentity(t *testing.T) {
	for k, want := range cutOrder {
		if got := cutOf(boolCuts[k]); got != want {
			t.Errorf("operator %d at bool: cut %d, want %d", k, got, want)
		}
		if got := cutOf(floatCuts[k]); got != want {
			t.Errorf("operator %d at float64: cut %d, want %d", k, got, want)
		}
	}
	for name, got := range map[string]sparse.Cut{
		"a wrapper around TriL[bool]": cutOf(IndexUnaryOp[bool, int, bool](func(v bool, i, j, s int) bool { return TriL(v, i, j, s) })),
		"TriL[int]":                   cutOf(IndexUnaryOp[int, int, bool](TriL[int])),
		"Diag[float32]":               cutOf(IndexUnaryOp[float32, int, bool](Diag[float32])),
		"ValueGE[int]":                cutOf(IndexUnaryOp[int, int, bool](ValueGE[int])),
		"nil":                         cutOf(IndexUnaryOp[bool, int, bool](nil)),
	} {
		if got != sparse.CutNone {
			t.Errorf("%s: cut %d, want none", name, got)
		}
	}
}

// TestTriLTriUDoNotWrap: TriL and TriU compare col − row with s, so an s
// near either end of int decides every entry the same way, where row + s
// used to wrap.
func TestTriLTriUDoNotWrap(t *testing.T) {
	for _, s := range []int{math.MinInt, math.MinInt + 1, math.MaxInt - 1, math.MaxInt} {
		low := s < 0 // every col − row of a small matrix lies above s
		for _, rc := range [][2]int{{0, 0}, {5, 0}, {0, 5}, {1 << 40, 3}} {
			if got := TriL[bool](true, rc[0], rc[1], s); got == low {
				t.Errorf("TriL(row %d, col %d, s %d) = %v", rc[0], rc[1], s, got)
			}
			if got := TriU[bool](true, rc[0], rc[1], s); got != low {
				t.Errorf("TriU(row %d, col %d, s %d) = %v", rc[0], rc[1], s, got)
			}
		}
	}
}

// TestMatrixSelectCutMatchesClosure runs every tagged operator through
// MatrixSelect and a closure wrapping it through the per-entry path, with
// no mask, a mask, an accumulator, replace and a transposed input, at one
// and four threads, and requires the same bits.
func TestMatrixSelectCutMatchesClosure(t *testing.T) {
	setMode(t, NonBlocking)
	rng := rand.New(rand.NewSource(39))
	cutBattery(t, rng, boolCuts, func(r *rand.Rand) bool { return r.Intn(2) == 0 })
	cutBattery(t, rng, floatCuts, func(r *rand.Rand) float64 {
		if r.Intn(8) == 0 {
			return math.Copysign(0, -1)
		}
		return r.NormFloat64()
	})

	// Untagged instantiations fall back to the per-entry call and agree
	// with the cut on the pattern.
	a := randMatrix(t, rng, 23, 17, nil, func(r *rand.Rand) float64 { return float64(r.Intn(100)) })
	ai := ck1(NewMatrix[int](23, 17))
	I, J, X := ck3(a.ExtractTuples())
	Y := make([]int, len(X))
	for k := range X {
		Y[k] = int(X[k])
	}
	ck(ai.Build(I, J, Y, nil))
	cut, entry := ck1(NewMatrix[float64](23, 17)), ck1(NewMatrix[int](23, 17))
	ck(MatrixSelect(cut, nil, nil, TriL[float64], a, 2, nil))
	ck(MatrixSelect(entry, nil, nil, TriL[int], ai, 2, nil))
	ci, cj, cx := ck3(cut.ExtractTuples())
	ei, ej, ex := ck3(entry.ExtractTuples())
	if !slices.Equal(ci, ei) || !slices.Equal(cj, ej) {
		t.Fatalf("TriL[int] kept %v %v, TriL[float64] %v %v", ei, ej, ci, cj)
	}
	for k := range ex {
		if float64(ex[k]) != cx[k] {
			t.Fatalf("TriL[int] entry %d = %d, TriL[float64] %v", k, ex[k], cx[k])
		}
	}
}

// randMatrix is a rows×cols matrix with about a third of its entries
// stored and every fifth row empty.
func randMatrix[D any](t *testing.T, rng *rand.Rand, rows, cols int, ctx *Context, mk func(*rand.Rand) D) *Matrix[D] {
	t.Helper()
	var I, J []Index
	var X []D
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if i%5 != 4 && rng.Intn(3) == 0 {
				I, J, X = append(I, i), append(J, j), append(X, mk(rng))
			}
		}
	}
	m := ck1(NewMatrix[D](rows, cols, InContext(ctx)))
	ck(m.Build(I, J, X, nil))
	return m
}

// cutBattery is TestMatrixSelectCutMatchesClosure at one domain.
func cutBattery[D comparable](t *testing.T, rng *rand.Rand, ops []IndexUnaryOp[D, int, bool], mk func(*rand.Rand) D) {
	t.Helper()
	const rows, cols = 23, 17
	for _, threads := range []int{1, 4} {
		ctx := ck1(NewContext(NonBlocking, nil, WithThreads(threads), withChunk(1)))
		a := randMatrix(t, rng, rows, cols, ctx, mk)
		old := randMatrix(t, rng, rows, cols, ctx, mk)
		oldT := randMatrix(t, rng, cols, rows, ctx, mk)
		mask := randMatrix(t, rng, rows, cols, ctx, func(r *rand.Rand) bool { return r.Intn(2) == 0 })
		first := func(x, _ D) D { return x }
		for k, op := range ops {
			wrap := IndexUnaryOp[D, int, bool](func(v D, i, j, s int) bool { return op(v, i, j, s) })
			for _, s := range []int{math.MinInt, -rows, -3, -1, 0, 2, cols, math.MaxInt, rng.Intn(2*rows) - rows} {
				for _, v := range []struct {
					name  string
					c     *Matrix[D]
					mask  *Matrix[bool]
					accum BinaryOp[D, D, D]
					desc  *Descriptor
				}{
					{"plain", nil, nil, nil, nil},
					{"masked", old, mask, nil, nil},
					{"accumulated", old, nil, first, nil},
					{"replace", old, mask, nil, DescR},
					{"transposed", oldT, nil, nil, DescT0},
				} {
					outs := [2]*Matrix[D]{}
					for arm, f := range []IndexUnaryOp[D, int, bool]{op, wrap} {
						if v.c != nil {
							outs[arm] = ck1(v.c.Dup())
						} else {
							outs[arm] = ck1(NewMatrix[D](rows, cols, InContext(ctx)))
						}
						ck(MatrixSelect(outs[arm], v.mask, v.accum, f, a, s, v.desc))
					}
					sameMatrixBits(t, fmt.Sprintf("op %d s=%d %s threads=%d", k, s, v.name, threads), outs[0], outs[1])
				}
			}
		}
		ck(ctx.Free())
	}
}

// sameMatrixBits requires got and want to store the same coordinates with
// the same bits (float64 through math.Float64bits).
func sameMatrixBits[D comparable](t *testing.T, label string, got, want *Matrix[D]) {
	t.Helper()
	gi, gj, gx := ck3(got.ExtractTuples())
	wi, wj, wx := ck3(want.ExtractTuples())
	if len(gi) != len(wi) {
		t.Fatalf("%s: nvals %d != %d", label, len(gi), len(wi))
	}
	for k := range wi {
		same := gx[k] == wx[k]
		if f, ok := any(gx[k]).(float64); ok {
			same = math.Float64bits(f) == math.Float64bits(any(wx[k]).(float64))
		}
		if gi[k] != wi[k] || gj[k] != wj[k] || !same {
			t.Fatalf("%s: entry %d = (%d,%d,%v), want (%d,%d,%v)", label, k, gi[k], gj[k], gx[k], wi[k], wj[k], wx[k])
		}
	}
}
