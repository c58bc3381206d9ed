package sparse

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/grblas/grb/internal/obsv"
)

// The vector views' cache and budget contracts. That a view holds its
// vector's entries is the program generator's (progen_test.go), which places
// every operand in a form through them.

// TestFormatViewCaching pins the caching contract: the view is built once
// per snapshot and the cached pointer is returned afterwards, and the
// conversion counter records exactly the materializations.
func TestFormatViewCaching(t *testing.T) {
	rng := rand.New(rand.NewSource(progSeed(t)))
	v := sprayVec(rng, 100, 2, func(r *rand.Rand) float64 { return r.NormFloat64() })
	obsv.ResetCounters()
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
	if got := obsv.FormatConversions.Load(); got != 1 {
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
	rng := rand.New(rand.NewSource(progSeed(t)))
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
	obsv.ResetCounters()
	tiny := NewBudget(16)
	dv, err := full.DenseViewEx(Exec{Tx: tiny.Tx()})
	if err != nil {
		t.Fatalf("a full vector's view under a 16-byte budget: %v", err)
	}
	if dv.Bit != nil || &dv.Val[0] != &full.Val[0] {
		t.Fatal("a full vector's view does not alias its values")
	}
	if conv, used, scratch := obsv.FormatConversions.Load(), tiny.Used(), obsv.ScratchBytes.Load(); conv != 0 || used != 0 || scratch != 0 {
		t.Fatalf("a full vector's view cost %d conversions, %d charged bytes, %d scratch bytes; want 0, 0, 0", conv, used, scratch)
	}
}
