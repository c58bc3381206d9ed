package grb

import "testing"

// TestRowAssign and TestColAssign: the errors. The values — a list with a
// repeated target, masks over the line, replace, accumulators, a source in
// the sorted, bitmap or full form — are the program generator's
// (progen_test.go), whose oracle writes ColAssign's column as RowAssign's
// row of the transpose, so ColAssign ≡ transpose ∘ RowAssign ∘ transpose
// holds on its programs.
func TestRowAssign(t *testing.T) {
	setMode(t, Blocking)
	c := mustMatrix(t, 3, 4, []Index{0, 1}, []Index{0, 1}, []int{1, 2})
	u, u2 := mustVector(t, 4, []Index{0, 2}, []int{10, 30}), mustVector(t, 2, []Index{0}, []int{100})
	wantCode(t, RowAssign(c, nil, nil, u, 5, All, nil), InvalidIndex)
	wantCode(t, RowAssign(c, nil, nil, u, 0, []Index{9}, nil), InvalidIndex)
	wantCode(t, RowAssign(c, nil, nil, u2, 0, All, nil), DimensionMismatch)
}

func TestColAssign(t *testing.T) {
	setMode(t, Blocking)
	c := mustMatrix(t, 4, 3, []Index{0, 1}, []Index{0, 1}, []int{1, 2})
	u, u2 := mustVector(t, 4, []Index{1, 2}, []int{20, 30}), mustVector(t, 2, []Index{0}, []int{5})
	wantCode(t, ColAssign(c, nil, nil, u, All, 7, nil), InvalidIndex)
	wantCode(t, ColAssign(c, nil, nil, u, []Index{9, 0, 1, 2}, 1, nil), InvalidIndex)
	wantCode(t, ColAssign(c, nil, nil, u2, All, 1, nil), DimensionMismatch)
}

func TestRowColAssignConsistency(t *testing.T) { matrixKit(t, kitInt, blocking, gLineAssign) }
func TestColAssignMatchesRowAssignOnTheTranspose(t *testing.T) {
	matrixKit(t, kitInt, nil, gLineAssign, gTranspose)
}
func TestRowColAssignFromEveryForm(t *testing.T) {
	matrixKit(t, kitPlusTimes, blocking, gLineAssign, gForm)
}
