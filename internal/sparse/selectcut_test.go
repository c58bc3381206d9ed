package sparse

import "testing"

// cutOps are Table IV's positional select operators as SelectM calls them,
// written as the grb layer defines them (col − row, never row + s).
var cutOps = map[Cut]func(i, j, s int) bool{
	CutTriL:    func(i, j, s int) bool { return j-i <= s },
	CutTriU:    func(i, j, s int) bool { return j-i >= s },
	CutDiag:    func(i, j, s int) bool { return j-i == s },
	CutOffdiag: func(i, j, s int) bool { return j-i != s },
	CutRowLE:   func(i, _, s int) bool { return i <= s },
	CutRowGT:   func(i, _, s int) bool { return i > s },
	CutColLE:   func(_, j, s int) bool { return j <= s },
	CutColGT:   func(_, j, s int) bool { return j > s },
}

// TestSelectCutMatchesClosure: every cut, SelectCutM, and SelectM with the
// operator as a closure meet one oracle in the program generator's select
// steps (progen_test.go) — hypersparse, dense and empty rows, s from far
// outside the dimensions to ±MaxInt, one worker or two — and a cut's output
// is allocated at its size.
func TestSelectCutMatchesClosure(t *testing.T) { matrixCorpus(t, sSelectM) }
