package grb

import (
	"fmt"
	"maps"
	"runtime"
	"testing"
)

// The tests below pin where a drain may write into the value array of the
// vector state its output supersedes (sequence.reuses) and where it must not.

// valArray is the address of v's current value array, read under the lock
// without lending or pinning it, so that looking does not change the answer.
func valArray[T any](t *testing.T, v *Vector[T]) *T {
	t.Helper()
	ck(v.Wait(Materialize))
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.cur.Val) == 0 {
		t.Fatal("empty value array")
	}
	return &v.cur.Val[0]
}

// reusingForm is one operation shape that writes into its output's
// superseded value array: w becomes f(w's old values) for a full w.
type reusingForm struct {
	name string
	run  func(w *Vector[float64]) error
	want func(old float64, i int) float64
}

func reusingForms(t *testing.T, n int) []reusingForm {
	idx, x, half, y := make([]Index, n), make([]float64, n), []Index{}, []float64{}
	for i := range idx {
		idx[i], x[i] = i, float64(i+1)
		if i%2 == 0 {
			half, y = append(half, i), append(y, 0.5)
		}
	}
	full := mustVector(t, n, idx, x)
	sparseU := mustVector(t, n, half, y)
	// a is diagonal, a(i, i) = i + 1, so full +.× a is (i + 1)², which the
	// accumulating pull adds to w.
	a := mustMatrix(t, n, n, idx, idx, x)
	return []reusingForm{
		{"EWiseMultVector zip", func(w *Vector[float64]) error {
			return EWiseMultVector(w, nil, nil, Times[float64], full, full, nil)
		}, func(_ float64, i int) float64 { return float64((i + 1) * (i + 1)) }},
		{"EWiseMultVector gather", func(w *Vector[float64]) error {
			return EWiseMultVector(w, nil, nil, Times[float64], full, sparseU, nil)
		}, nil},
		{"EWiseAddVector scatter", func(w *Vector[float64]) error {
			return EWiseAddVector(w, nil, nil, Plus[float64], full, sparseU, nil)
		}, func(_ float64, i int) float64 {
			if i%2 == 0 {
				return float64(i+1) + 0.5
			}
			return float64(i + 1)
		}},
		{"VectorAssignScalar", func(w *Vector[float64]) error {
			return VectorAssignScalar(w, nil, nil, 7, All, nil)
		}, func(float64, int) float64 { return 7 }},
		{"VectorAssignScalar accumulate", func(w *Vector[float64]) error {
			return VectorAssignScalar(w, nil, Plus[float64], 7, All, nil)
		}, func(old float64, _ int) float64 { return old + 7 }},
		{"VxM accumulate", func(w *Vector[float64]) error {
			return VxM(w, nil, Plus[float64], PlusTimes[float64](), full, a, nil)
		}, func(old float64, i int) float64 { return old + float64((i+1)*(i+1)) }},
	}
}

// fullOwned returns a full vector, w(i) = base + i, whose storage its own
// drain allocated.
func fullOwned(t *testing.T, n int, base float64) *Vector[float64] {
	t.Helper()
	w := ck1(NewVector[float64](n))
	ck(VectorAssignScalar(w, nil, nil, base, All, nil))
	plusRow := func(x float64, row, _ Index, _ int) float64 { return x + float64(row) }
	ck(VectorApplyIndexOp(w, nil, nil, plusRow, w, 0, nil))
	return w
}

// TestReuseWritesInPlace: with nothing else reading w, each form writes into
// w's previous value array and computes what it did into fresh storage.
func TestReuseWritesInPlace(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 40
	for _, f := range reusingForms(t, n) {
		if f.want == nil {
			continue // a gather's pattern is not w's: nothing to reuse
		}
		w := fullOwned(t, n, 10)
		_, old := ck2(w.ExtractTuples())
		before := valArray(t, w)
		ck(f.run(w))
		if valArray(t, w) != before {
			t.Errorf("%s: wrote into fresh storage, want w's superseded value array", f.name)
		}
		_, got := ck2(w.ExtractTuples())
		for i := range got {
			if want := f.want(old[i], i); got[i] != want {
				t.Fatalf("%s: w(%d) = %v, want %v", f.name, i, got[i], want)
			}
		}
	}
}

// TestReuseLeavesPendingReadersTheOldValues: another object's pending node
// reads w's full snapshot; each reusing form then overwrites w; the reader
// materializes afterwards and must see the values w had at its call.
func TestReuseLeavesPendingReadersTheOldValues(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 40
	for _, f := range reusingForms(t, n) {
		w := fullOwned(t, n, 10)
		_, old := ck2(w.ExtractTuples())
		before := valArray(t, w)
		reader := ck1(NewVector[float64](n))
		ck(VectorApply(reader, nil, nil, Identity[float64], w, nil)) // pending: lends w
		ck(f.run(w))
		ck(w.Wait(Materialize))
		if valArray(t, w) == before {
			t.Errorf("%s: overwrote the array a pending node still reads", f.name)
		}
		_, got := ck2(reader.ExtractTuples())
		if fmt.Sprint(got) != fmt.Sprint(old) {
			t.Fatalf("%s: the pending reader saw %v, want w's values at its call %v", f.name, got, old)
		}
	}
}

// TestAliasedOutputIsNeverReused: an output that is also a non-local input
// (a product's operand) or the mask of the same call is read by the kernel
// or the write-back at positions it has already written, so the step
// allocates.
func TestAliasedOutputIsNeverReused(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 40
	idx, twos := make([]Index, n), make([]float64, n)
	for i := range idx {
		idx[i], twos[i] = i, 2
	}
	// a = 2I with a(1, 1) moved to a(0, 1): a pull in place would read w(0)
	// for t(1) after writing it.
	a := mustMatrix(t, n, n, append([]Index{0, 0}, idx[2:]...), idx, twos)
	for _, c := range []struct {
		name string
		run  func(w *Vector[float64]) error
		want func(old []float64, i int) float64
	}{
		{"VxM operand", func(w *Vector[float64]) error {
			return VxM(w, nil, Plus[float64], PlusTimes[float64](), w, a, nil)
		}, func(old []float64, i int) float64 {
			if i == 1 {
				return old[1] + 2*old[0]
			}
			return 3 * old[i]
		}},
	} {
		w := fullOwned(t, n, 1)
		_, old := ck2(w.ExtractTuples())
		before := valArray(t, w)
		ck(c.run(w))
		if valArray(t, w) == before {
			t.Errorf("%s: an aliased output was written in place", c.name)
		}
		_, got := ck2(w.ExtractTuples())
		for i := range got {
			if want := c.want(old, i); got[i] != want {
				t.Fatalf("%s: w(%d) = %v, want %v", c.name, i, got[i], want)
			}
		}
	}

	// w⟨w⟩ = u ∧ u: a masked step never reuses, whatever the mask.
	wb := ck1(NewVector[bool](n))
	ck(VectorAssignScalar(wb, nil, nil, true, All, nil))
	ck(VectorApply(wb, nil, nil, LNot, wb, nil))
	before := valArray(t, wb)
	ub := ck1(NewVector[bool](n))
	ck(VectorAssignScalar(ub, nil, nil, true, All, nil))
	ck(EWiseMultVector(wb, wb, nil, LAnd, ub, ub, DescS))
	if valArray(t, wb) == before {
		t.Error("mask: an output that is its own mask was written in place")
	}
}

// TestFailedReusingStepParksItsError: a step that was granted w's value
// array and then failed — cancelled at the step boundary, or a user operator
// panicking after the kernel wrote part of the array — parks its error, and
// every read of w returns it until Clear.
func TestFailedReusingStepParksItsError(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 40
	for _, c := range []struct {
		name string
		want Info
		run  func(ctx *Context, w, u *Vector[float64]) error
	}{
		{"cancelled", Canceled, func(ctx *Context, w, u *Vector[float64]) error {
			if err := EWiseMultVector(w, nil, nil, Times[float64], u, u, nil); err != nil {
				return err
			}
			return ctx.Cancel()
		}},
		{"faulted", Panic, func(_ *Context, w, u *Vector[float64]) error {
			calls := 0
			return EWiseMultVector(w, nil, nil, func(x, y float64) float64 {
				if calls++; calls > n/2 {
					panic("operator fault")
				}
				return -x * y
			}, u, u, nil)
		}},
	} {
		ctx := ck1(NewContext(NonBlocking, nil, WithCancel()))
		w := ck1(NewVector[float64](n, InContext(ctx)))
		ck(VectorAssignScalar(w, nil, nil, 1, All, nil))
		ck(VectorApply(w, nil, nil, AInv[float64], w, nil))
		u := ck1(NewVector[float64](n, InContext(ctx)))
		ck(VectorAssignScalar(u, nil, nil, 3, All, nil))
		ck(u.Wait(Materialize))
		before := valArray(t, w)
		ck(c.run(ctx, w, u))

		wantCode(t, w.Wait(Materialize), c.want)
		if w.cur.N != n || &w.cur.Val[0] != before {
			t.Fatalf("%s: the failed step replaced w's storage", c.name)
		}
		if torn := w.cur.Val[0] != -1; torn != (c.want == Panic) {
			t.Fatalf("%s: w(0) = %v after the failed step", c.name, w.cur.Val[0])
		}
		_, err := w.Nvals()
		wantCode(t, err, c.want)
		_, _, err = w.ExtractElement(0)
		wantCode(t, err, c.want)
		_, _, err = w.ExtractTuples()
		wantCode(t, err, c.want)
		_, err = VectorReduce(PlusMonoid[float64](), w)
		wantCode(t, err, c.want)
		_, err = w.SerializeBytes()
		wantCode(t, err, c.want)
		other := ck1(NewVector[float64](n, InContext(ctx)))
		wantCode(t, VectorApply(other, nil, nil, Identity[float64], w, nil), c.want)

		ck(w.Clear())
		if nv := ck1(w.Nvals()); nv != 0 {
			t.Fatalf("%s: %d entries after Clear", c.name, nv)
		}
	}
}

// TestStepsThatReadOldAllocate: a write-back under a mask — another
// object's, or the complemented empty one, which keeps old whole — and an
// accumulation of T into w both read w's old values after the kernel, so
// the kernel must not have written over them.
func TestStepsThatReadOldAllocate(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 40
	idx, threes, evens := make([]Index, n), make([]float64, n), []Index{}
	for i := range idx {
		idx[i], threes[i] = i, 3
		if i%2 == 0 {
			evens = append(evens, i)
		}
	}
	u := mustVector(t, n, idx, threes)
	m := mustVector(t, n, evens, make([]bool, len(evens)))
	for _, c := range []struct {
		name string
		run  func(w *Vector[float64]) error
		want func(old float64, i int) float64
	}{
		{"mask", func(w *Vector[float64]) error {
			return EWiseMultVector(w, m, nil, Times[float64], u, u, DescS)
		}, func(old float64, i int) float64 {
			if i%2 == 0 {
				return 9
			}
			return old
		}},
		{"complemented empty mask", func(w *Vector[float64]) error {
			return EWiseMultVector(w, nil, nil, Times[float64], u, u, DescC)
		}, func(old float64, _ int) float64 { return old }},
		{"accumulate", func(w *Vector[float64]) error {
			return EWiseMultVector(w, nil, Plus[float64], Times[float64], u, u, nil)
		}, func(old float64, _ int) float64 { return old + 9 }},
	} {
		w := fullOwned(t, n, 1)
		_, old := ck2(w.ExtractTuples())
		ck(c.run(w))
		_, got := ck2(w.ExtractTuples())
		for i := range got {
			if want := c.want(old[i], i); got[i] != want {
				t.Fatalf("%s: w(%d) = %v, want %v", c.name, i, got[i], want)
			}
		}
	}
}

// TestReturnedOperandIsPinned: when a kernel returns an operand as its
// result (u ⊕ ∅ is u), two objects hold one storage, and neither may write
// into it afterwards.
func TestReturnedOperandIsPinned(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 40
	u := fullOwned(t, n, 1)
	_, old := ck2(u.ExtractTuples())
	w := ck1(NewVector[float64](n))
	ck(EWiseAddVector(w, nil, nil, Plus[float64], u, ck1(NewVector[float64](n)), nil))
	if valArray(t, w) != valArray(t, u) {
		t.Fatal("u ⊕ ∅ did not return u's storage")
	}
	ck(VectorAssignScalar(w, nil, nil, 5, All, nil))
	ck(w.Wait(Materialize))
	_, got := ck2(u.ExtractTuples())
	if fmt.Sprint(got) != fmt.Sprint(old) {
		t.Fatalf("overwriting w changed u, which shared its storage: %v, want %v", got, old)
	}
}

// TestDupPinsTheStorage: a Dup shares the snapshot it copies, so neither
// the original nor the copy writes into it afterwards.
func TestDupPinsTheStorage(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 40
	w := fullOwned(t, n, 1)
	_, old := ck2(w.ExtractTuples())
	d := ck1(w.Dup())
	ck(VectorAssignScalar(w, nil, nil, 5, All, nil))
	ck(w.Wait(Materialize))
	ck(VectorAssignScalar(d, nil, Plus[float64], 1, All, nil))
	_, got := ck2(d.ExtractTuples())
	for i := range got {
		if got[i] != old[i]+1 {
			t.Fatalf("d(%d) = %v after w was overwritten, want %v", i, got[i], old[i]+1)
		}
	}
}

// bitArray is valArray's twin for the presence flags of a bitmap.
func bitArray[T any](t *testing.T, v *Vector[T]) *bool {
	t.Helper()
	ck(v.Wait(Materialize))
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.cur.Bit) == 0 {
		t.Fatal("not a bitmap")
	}
	return &v.cur.Bit[0]
}

// bitmapOwned returns a vector of size n storing base + i at every third
// position and at 1, in the bitmap form and owned by its object: it is
// accumulated the way SSSP accumulates d, w = w min f, and the result
// passes the cut between the forms.
func bitmapOwned(t *testing.T, n int, base float64) *Vector[float64] {
	t.Helper()
	w := ck1(NewVector[float64](n))
	ck(w.SetElement(base+1, 1))
	var idx []Index
	var x []float64
	for i := 0; i < n; i += 3 {
		idx, x = append(idx, i), append(x, base+float64(i))
	}
	ck(EWiseAddVector(w, nil, nil, Min[float64], w, mustVector(t, n, idx, x), nil))
	bitArray(t, w)
	return w
}

// entries reads v's stored entries into a map.
func entries[T any](v *Vector[T]) map[Index]T {
	I, X := ck2(v.ExtractTuples())
	m := make(map[Index]T, len(I))
	for k, i := range I {
		m[i] = X[k]
	}
	return m
}

// TestBitmapAccumulatorsWriteInPlace: an accumulator in the bitmap form is
// updated by a sparse delta in its own storage, O(|delta|) — d = d min f
// with d on either side, and levels⟨frontier⟩ = depth with or without an
// accumulator — and so is a full w = w ⊗ u, whose output is a position-local
// operand.
func TestBitmapAccumulatorsWriteInPlace(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 64
	var idx []Index
	var lower []float64
	var admit []bool
	for i := 0; i < n; i += 5 {
		idx, lower, admit = append(idx, i), append(lower, float64(i)-50), append(admit, true)
	}
	f := mustVector(t, n, idx, lower)
	m := mustVector(t, n, idx, admit)
	minOf := func(old map[Index]float64, i Index, x float64) float64 {
		if y, ok := old[i]; ok && y < x {
			return y
		}
		return x
	}
	for _, c := range []struct {
		name string
		run  func(w *Vector[float64]) error
		at   func(old map[Index]float64, i Index, k int) float64 // w(i) after, i = idx[k]
	}{
		{"d = d min f", func(w *Vector[float64]) error {
			return EWiseAddVector(w, nil, nil, Min[float64], w, f, nil)
		}, func(old map[Index]float64, i Index, k int) float64 { return minOf(old, i, lower[k]) }},
		{"d = f min d", func(w *Vector[float64]) error {
			return EWiseAddVector(w, nil, nil, Min[float64], f, w, nil)
		}, func(old map[Index]float64, i Index, k int) float64 { return minOf(old, i, lower[k]) }},
		{"w<m> = 7", func(w *Vector[float64]) error {
			return VectorAssignScalar(w, m, nil, 7, All, DescS)
		}, func(map[Index]float64, Index, int) float64 { return 7 }},
		{"w<m> += 7", func(w *Vector[float64]) error {
			return VectorAssignScalar(w, m, Plus[float64], 7, All, DescS)
		}, func(old map[Index]float64, i Index, _ int) float64 { return old[i] + 7 }},
	} {
		w := bitmapOwned(t, n, 10)
		old := entries(w)
		val, bit := valArray(t, w), bitArray(t, w)
		ck(c.run(w))
		if valArray(t, w) != val || bitArray(t, w) != bit {
			t.Errorf("%s: wrote into fresh storage, want w's superseded bitmap", c.name)
		}
		want := maps.Clone(old)
		for k, i := range idx {
			want[i] = c.at(old, i, k)
		}
		if got := entries(w); !maps.Equal(got, want) {
			t.Fatalf("%s: w = %v, want %v", c.name, got, want)
		}
	}

	w := fullOwned(t, n, 1)
	_, old := ck2(w.ExtractTuples())
	before := valArray(t, w)
	ck(EWiseMultVector(w, nil, nil, Times[float64], w, fullOwned(t, n, 2), nil))
	if valArray(t, w) != before {
		t.Error("w = w ⊗ u: a position-local output was not written in place")
	}
	_, got := ck2(w.ExtractTuples())
	for i := range got {
		if want := old[i] * (2 + float64(i)); got[i] != want {
			t.Fatalf("w = w ⊗ u: w(%d) = %v, want %v", i, got[i], want)
		}
	}
}

// TestBitmapReadersKeepTheirStorage: a bitmap that is still read — its own
// mask, a pending reader, a Dup — is copied, not written, and every reader
// sees the values at its call.
func TestBitmapReadersKeepTheirStorage(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 64
	idx := []Index{0, 5, 9}
	f := mustVector(t, n, idx, []float64{-1, -2, -3})
	for _, c := range []struct {
		name string
		run  func(w *Vector[float64]) (check func())
	}{
		{"pending reader", func(w *Vector[float64]) func() {
			old := entries(w)
			r := ck1(NewVector[float64](n))
			ck(VectorApply(r, nil, nil, Identity[float64], w, nil))
			ck(EWiseAddVector(w, nil, nil, Min[float64], w, f, nil))
			return func() {
				if got := entries(r); !maps.Equal(got, old) {
					t.Fatalf("pending reader: saw %v, want w at its call %v", got, old)
				}
			}
		}},
		{"Dup", func(w *Vector[float64]) func() {
			old := entries(w)
			d := ck1(w.Dup())
			ck(VectorAssignScalar(w, ck1(AsVectorMask(f)), nil, 7, All, DescS))
			return func() {
				if got := entries(d); !maps.Equal(got, old) {
					t.Fatalf("Dup: %v, want w at the Dup %v", got, old)
				}
			}
		}},
	} {
		w := bitmapOwned(t, n, 10)
		val, bit := valArray(t, w), bitArray(t, w)
		check := c.run(w)
		ck(w.Wait(Materialize))
		if valArray(t, w) == val || (len(w.cur.Bit) > 0 && &w.cur.Bit[0] == bit) {
			t.Errorf("%s: wrote into a bitmap something still reads", c.name)
		}
		check()
	}

	// w⟨w⟩ = true: the mask is the output's own bitmap.
	wb := ck1(NewVector[bool](n))
	ck(wb.SetElement(true, 1))
	evens := make([]Index, 0, n/2)
	for i := 0; i < n; i += 2 {
		evens = append(evens, i)
	}
	ck(VectorAssignScalar(wb, mustVector(t, n, evens, make([]bool, len(evens))), nil, true, All, DescS))
	val, bit := valArray(t, wb), bitArray(t, wb)
	ck(VectorAssignScalar(wb, wb, nil, false, All, DescS))
	if valArray(t, wb) == val || &wb.cur.Bit[0] == bit {
		t.Error("own mask: an output that is its own mask was written in place")
	}
	if got := entries(wb); len(got) != n/2+1 || got[1] || got[0] {
		t.Fatalf("own mask: %v", got)
	}
}

// TestImportedVectorsWriteInPlace: a vector that VectorImport or
// VectorDeserialize built holds storage of its own, so the first step that
// supersedes it, w = u ⊕ w over a dense w, writes w's values in place and
// allocates less than one value array. A Dup shares its storage and is not
// claimed (TestDupPinsTheStorage).
func TestImportedVectorsWriteInPlace(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 512
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	u := mustVector(t, n, []Index{3, 100}, []float64{0.5, 0.25})
	ck(u.Wait(Materialize))
	serialized := ck1(ck1(VectorImport(n, nil, x, FormatDenseVector)).SerializeBytes())
	for _, c := range []struct {
		name string
		w    *Vector[float64]
	}{
		{"VectorImport(dense)", ck1(VectorImport(n, nil, x, FormatDenseVector))},
		{"VectorDeserialize", ck1(VectorDeserialize[float64](serialized))},
	} {
		before := valArray(t, c.w)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ck(EWiseAddVector(c.w, nil, nil, Plus[float64], u, c.w, nil))
		ck(c.w.Wait(Materialize))
		runtime.ReadMemStats(&m1)
		if valArray(t, c.w) != before {
			t.Errorf("%s: w = u ⊕ w wrote into fresh storage, want the imported value array", c.name)
		}
		if used := m1.TotalAlloc - m0.TotalAlloc; used >= 8*n {
			t.Errorf("%s: w = u ⊕ w allocated %d bytes, want less than one %d-byte value array", c.name, used, 8*n)
		}
		want := map[Index]float64{}
		for i := range n {
			want[i] = float64(i)
		}
		want[3], want[100] = 3.5, 100.25
		if got := entries(c.w); !maps.Equal(got, want) {
			t.Fatalf("%s: w = %v, want %v", c.name, got, want)
		}
	}
}
