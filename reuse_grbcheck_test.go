//go:build grbcheck

package grb

import (
	"fmt"
	"strings"
	"testing"

	"github.com/grblas/grb/internal/sparse"
)

// TestMissedLendPanicsUnderGrbcheck forges the bug the holder count exists
// to prevent: a pending node reads w's snapshot without having lent it. When
// w's next step then writes into that snapshot's value array, grbcheck
// poisons the superseded struct, so the forged reader panics when it drains
// instead of reading w's new values as its old ones.
func TestMissedLendPanicsUnderGrbcheck(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 16
	w := fullOwned(t, n, 1)
	before := valArray(t, w)
	w.mu.Lock()
	stale := w.cur // no lend: the missed count
	w.mu.Unlock()
	r := ck1(NewVector[float64](n))
	ck(r.push(NonBlocking, opNode[float64, *sparse.Vec[float64]]{op: "forged", yields: yieldsC,
		kernel: func(sparse.Exec) (*sparse.Vec[float64], error) {
			return sparse.ApplyV(stale, func(x float64) float64 { return x }), nil
		}}))
	ck(VectorAssignScalar(w, nil, nil, 9, All, nil))
	if valArray(t, w) != before {
		t.Fatal("the step did not write into w's superseded value array")
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "grbcheck") {
			t.Fatalf("draining the forged reader: recovered %q, want a grbcheck panic", msg)
		}
	}()
	err := r.Wait(Materialize)
	t.Fatalf("the forged reader drained (err %v) over a poisoned snapshot", err)
}

// TestMissedLendOnABitmapPanicsUnderGrbcheck is the same forgery over a
// bitmap written in place: the poison nils the superseded struct's Bit as
// well as its Val, so the forged reader cannot read the new flags as old.
func TestMissedLendOnABitmapPanicsUnderGrbcheck(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 64
	w := bitmapOwned(t, n, 1)
	bit := bitArray(t, w)
	w.mu.Lock()
	stale := w.cur // no lend: the missed count
	w.mu.Unlock()
	r := ck1(NewVector[float64](n))
	ck(r.push(NonBlocking, opNode[float64, *sparse.Vec[float64]]{op: "forged", yields: yieldsC,
		kernel: func(sparse.Exec) (*sparse.Vec[float64], error) { return stale.Clone(), nil }}))
	ck(EWiseAddVector(w, nil, nil, Min[float64], w, mustVector(t, n, []Index{2}, []float64{-1}), nil))
	if bitArray(t, w) != bit {
		t.Fatal("the step did not write into w's superseded bitmap")
	}
	if stale.Bit != nil || stale.Val != nil || stale.N != -1 {
		t.Fatalf("the superseded bitmap was not poisoned: N %d, %d flags, %d values", stale.N, len(stale.Bit), len(stale.Val))
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "grbcheck") {
			t.Fatalf("draining the forged reader: recovered %q, want a grbcheck panic", msg)
		}
	}()
	err := r.Wait(Materialize)
	t.Fatalf("the forged reader drained (err %v) over a poisoned snapshot", err)
}
