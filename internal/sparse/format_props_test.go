package sparse

import (
	"errors"
	"math/rand"
	"testing"
)

// Format-transition property tests: converting a sorted vector to its
// bitmap view and back (sortedEx) must be lossless — same shape, same
// nnz, same pattern, same values — for every density, which alone picks the
// view (full operand → full view, anything else → bitmap view). Built with
// -tags grbcheck the conversions additionally run the structural validators
// at every install point, so a malformed view or a broken round-trip fails
// twice over.

// roundTripVec pushes v through its block view and back and checks the
// result is exactly v.
func roundTripVec[T comparable](t *testing.T, label string, v *Vec[T], wantFull bool) {
	t.Helper()
	dv, err := v.DenseViewEx(Exec{})
	if err != nil {
		t.Fatalf("%s: DenseViewEx: %v", label, err)
	}
	if dv.N != v.N || dv.NNZ() != v.NNZ() {
		t.Fatalf("%s: view shape/nnz (%d,%d) != (%d,%d)", label, dv.N, dv.NNZ(), v.N, v.NNZ())
	}
	if (dv.Bit == nil) != wantFull {
		t.Fatalf("%s: view full = %v, want %v", label, dv.Bit == nil, wantFull)
	}
	back, err := dv.sortedEx(Exec{})
	if err != nil {
		t.Fatalf("%s: sortedEx: %v", label, err)
	}
	identicalVec(t, label+"/round-trip", back, v)
}

func TestFormatVecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	mk := func(r *rand.Rand) float64 { return r.NormFloat64() }
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		// Sparse frontier: a bitmap view unless the spray happened to
		// saturate every position (likely only at tiny n).
		sv := sprayVec(rng, n, 3, mk)
		roundTripVec(t, "sparse", sv, sv.NNZ() == sv.N)
		// Full frontier: a dense (bitmap-free) view.
		roundTripVec(t, "full", fullVec(rng, n, mk), true)
	}
	// Degenerate shapes.
	roundTripVec(t, "empty", NewVec[float64](17), false)
	roundTripVec(t, "zero-dim", NewVec[float64](0), true)
}

func TestFormatVecRoundTripInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	mk := func(r *rand.Rand) int64 { return int64(r.Intn(2000) - 1000) }
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(200)
		sv := sprayVec(rng, n, 3, mk)
		roundTripVec(t, "sparse-i64", sv, sv.NNZ() == sv.N)
		roundTripVec(t, "full-i64", fullVec(rng, n, mk), true)
	}
}

// TestFormatViewCaching pins the caching contract: the view is built once
// per snapshot and the cached pointer is returned afterwards, and the
// conversion counter records exactly the materializations.
func TestFormatViewCaching(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	v := sprayVec(rng, 100, 2, func(r *rand.Rand) float64 { return r.NormFloat64() })
	ResetKernelCounts()
	dv1, err := v.DenseViewEx(Exec{})
	if err != nil {
		t.Fatal(err)
	}
	dv2, err := v.DenseViewEx(Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if &dv1.Val[0] != &dv2.Val[0] || &dv1.Bit[0] != &dv2.Bit[0] {
		t.Fatal("second DenseViewEx did not return the cached view")
	}
	if got := FormatConversionCount(); got != 1 {
		t.Fatalf("conversions = %d, want 1", got)
	}

}

// TestFormatViewBudget pins the budget interaction: a budget too small for
// the block view refuses with ErrBudget (so the planner's hash gather can
// serve instead), and a sufficient one charges the view as the operation's
// scratch — held while the transaction is open, handed back when it closes,
// so a stream of freed frontiers cannot exhaust the budget. A full vector is
// its own view: it converts nothing, allocates nothing and is charged nothing,
// whatever the budget.
func TestFormatViewBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	mk := func(r *rand.Rand) float64 { return r.NormFloat64() }
	v := fullVec(rng, 1000, mk)
	v.Ind, v.Val = v.Ind[1:], v.Val[1:] // one entry short of full
	small := NewBudget(16).Tx()         // bytes: far below the 9000-byte view
	if _, err := v.DenseViewEx(Exec{Tx: small}); !errors.Is(err, ErrBudget) {
		t.Fatalf("DenseViewEx under a 16-byte budget: err = %v, want ErrBudget", err)
	}
	big := NewBudget(1 << 20)
	tx := big.Tx()
	if _, err := v.DenseViewEx(Exec{Tx: tx}); err != nil {
		t.Fatalf("DenseViewEx under a 1MiB budget: %v", err)
	}
	if got := big.Used(); got != 9000 {
		t.Fatalf("materializing the view charged %d bytes, want 9000 (values + bitmap)", got)
	}
	tx.Close()
	if got := big.Used(); got != 0 {
		t.Fatalf("the view's charge outlived its operation: %d bytes still reserved", got)
	}
	if _, err := v.DenseViewEx(Exec{Tx: big.Tx()}); err != nil || big.Used() != 0 {
		t.Fatalf("a cached view charged again: err=%v used=%d", err, big.Used())
	}

	full := fullVec(rng, 1000, mk)
	ResetKernelCounts()
	tiny := NewBudget(16)
	dv, err := full.DenseViewEx(Exec{Tx: tiny.Tx()})
	if err != nil {
		t.Fatalf("a full vector's view under a 16-byte budget: %v", err)
	}
	if dv.Bit != nil || &dv.Val[0] != &full.Val[0] {
		t.Fatal("a full vector's view does not alias its values")
	}
	if conv, used, scratch := FormatConversionCount(), tiny.Used(), scratchBytes.Load(); conv != 0 || used != 0 || scratch != 0 {
		t.Fatalf("a full vector's view cost %d conversions, %d charged bytes, %d scratch bytes; want 0, 0, 0", conv, used, scratch)
	}
}
