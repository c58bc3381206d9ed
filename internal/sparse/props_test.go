package sparse

import "testing"

// The properties these tests drew random operands for — the tuple merge
// against a map, (A·B)·C = A·(B·C), A·(B ⊕ C) = A·B ⊕ A·C, (A·B)ᵀ = Bᵀ·Aᵀ,
// a mask applied twice, a resize and back — follow from the definitions the
// program generator's oracle holds each kernel to (progen_test.go). The
// products of TestSpGEMMAssociativity are the int64 domains', whose sums no
// fold order changes; TestResizeRoundTrip's are a matrix's and a vector's
// resize and back.
func TestMergeTuplesAgainstMapReference(t *testing.T)  { matrixCorpus(t, sBuild) }
func TestSpGEMMAssociativity(t *testing.T)             { runConfig(t, config{kinds: sGEMM, kits: kPI | kMI}) }
func TestSpGEMMDistributesOverEWiseAdd(t *testing.T)   { matrixCorpus(t, sGEMM|sEWiseM) }
func TestTransposeDistributesOverProduct(t *testing.T) { matrixCorpus(t, sGEMM|sTranspose) }
func TestMaskApplyIdempotent(t *testing.T)             { matrixCorpus(t, sEWiseM) }
func TestResizeRoundTrip(t *testing.T)                 { matrixCorpus(t, sTranspose|sMerge) }
