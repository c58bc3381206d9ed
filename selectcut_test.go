package grb

import (
	"math"
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

// TestMatrixSelectCutMatchesClosure: every generated program
// (progen_test.go) runs its positional selects through the cut and, in the
// closure-twin configurations, through a closure wrapping the operator, with
// masks, accumulators, replace, Transpose0 and thresholds up to ±MaxInt, at
// one thread and two.
func TestMatrixSelectCutMatchesClosure(t *testing.T) { matrixKit(t, kitBool, nil, gSelectM) }
