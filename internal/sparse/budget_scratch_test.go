package sparse

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/grblas/grb/internal/obsv"
)

// Regression tests for the budgetcheck sweep: row-scaled stitch tables used
// to be allocated without a budget charge, so a tall product could blow far
// past the configured memory limit while every metered allocation stayed
// tiny. Each test pins
// one fixed site: a budget sized to fit the worker scratch but not the
// newly charged table must now refuse with ErrBudget, and a generous
// budget must still produce the exact unbudgeted result.

// tallThin builds a rows×8 matrix with one entry per row, so the worker
// SPA scratch is a few dozen bytes while the rows-scaled stitch table is
// rows*8 bytes.
func tallThin(rows int) *CSR[int] {
	out := NewCSR[int](rows, 8)
	for i := 0; i < rows; i++ {
		out.Ind = append(out.Ind, i%8)
		out.Val = append(out.Val, 1+i%3)
		out.Ptr[i+1] = len(out.Ind)
	}
	return out
}

func TestSpGEMMStitchTableIsBudgeted(t *testing.T) {
	a := tallThin(10000)
	b := sprayCSR(rand.New(rand.NewSource(1)), 8, 8, 32, func(r *rand.Rand) int { return 1 + r.Intn(9) })
	mul := func(x, y int) int { return x * y }
	add := func(x, y int) int { return x + y }

	// 4 KiB fits the 8-column SPA many times over but not the 80 KB
	// row-length table; before the charge landed this call succeeded.
	small := NewBudget(4096).Tx()
	if _, err := SpGEMMSemiEx(SemiGeneric, SpecAuto, a, b, mul, add, Mask{}, Exec{Threads: 1, Tx: small}, KernelAuto); !errors.Is(err, ErrBudget) {
		t.Fatalf("closure SpGEMM under a 4KiB budget: err = %v, want ErrBudget", err)
	}

	big := NewBudget(1 << 20).Tx()
	got, err := SpGEMMSemiEx(SemiGeneric, SpecAuto, a, b, mul, add, Mask{}, Exec{Threads: 1, Tx: big}, KernelAuto)
	if err != nil {
		t.Fatalf("closure SpGEMM under a 1MiB budget: %v", err)
	}
	identicalCSR(t, "budgeted spgemm", got, closureSpGEMM(a, b, mul, add, Mask{}, 1, KernelAuto))
}

func TestMonoSpGEMMStitchTableIsBudgeted(t *testing.T) {
	rows := 10000
	a := NewCSR[float64](rows, 8)
	for i := 0; i < rows; i++ {
		a.Ind = append(a.Ind, i%8)
		a.Val = append(a.Val, float64(1+i%3))
		a.Ptr[i+1] = len(a.Ind)
	}
	b := sprayCSR(rand.New(rand.NewSource(2)), 8, 8, 32, func(r *rand.Rand) float64 { return float64(1 + r.Intn(5)) })
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }

	// The family loop's stitch table is charged under its own site; the
	// counter proves the family loop, not the closure one, took the call.
	obsv.ResetCounters()
	small := NewBudget(4096).Tx()
	_, err := SpGEMMSemiEx(SemiPlusTimes, SpecAuto, a, b, mul, add, Mask{}, Exec{Threads: 1, Tx: small}, KernelAuto)
	if mono := obsv.MonoKernels.Load(); mono != 1 {
		t.Fatal("the product did not take the float64 plus-times family loop")
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("monomorphized product under a 4KiB budget: err = %v, want ErrBudget", err)
	}

	big := NewBudget(1 << 20).Tx()
	got, err := SpGEMMSemiEx(SemiPlusTimes, SpecAuto, a, b, mul, add, Mask{}, Exec{Threads: 1, Tx: big}, KernelAuto)
	if err != nil {
		t.Fatalf("monomorphized product under a 1MiB budget: %v", err)
	}
	identicalCSR(t, "budgeted mono spgemm", got, closureSpGEMM(a, b, mul, add, Mask{}, 1, KernelAuto))
}
