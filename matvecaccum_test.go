package grb

import (
	"math/rand"
	"testing"
)

// accumGraph is a random n×n float64 matrix with about four entries a row.
func accumGraph(t *testing.T, rng *rand.Rand, n int, opts ...ObjOption) *Matrix[float64] {
	t.Helper()
	I, J, X := make([]Index, 4*n), make([]Index, 4*n), make([]float64, 4*n)
	for k := range I {
		I[k], J[k], X[k] = rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(9))
	}
	a := ck1(NewMatrix[float64](n, n, opts...))
	ck(a.Build(I, J, X, Second[float64, float64]))
	ck(a.Wait(Materialize))
	return a
}

// prefixVector stores float64 values at positions [0, count) of an n-vector.
func prefixVector(t *testing.T, rng *rand.Rand, n, count int, opts ...ObjOption) *Vector[float64] {
	t.Helper()
	w := ck1(NewVector[float64](n, opts...))
	if count > 0 {
		I, X := make([]Index, count), make([]float64, count)
		for i := range I {
			I[i], X[i] = i, float64(rng.Intn(50))
		}
		ck(w.Build(I, X, nil))
	}
	ck(w.Wait(Materialize))
	return w
}

// TestMatVecAccumulatorInKernel: w⟨m⟩ = w ⊙ (u ⊕.⊗ A), whose accumulation the
// kernel now performs itself — in one pass with no stored product when it
// pulls into a full w under no mask — equals the product, the accumulation
// and the masked write-back issued as three calls, == on pattern and values:
// w full, one entry short of full and empty; pinned push and pinned pull;
// with and without a mask; u a separate vector or w itself (SSSP's call);
// threads 1, 2 and 4; sizes on both sides of the kernel's block. The push
// folds each column in frontier order, so it agrees too; the accumulator is
// not commutative, so a swapped operand order shows.
func TestMatVecAccumulatorInKernel(t *testing.T) {
	setMode(t, NonBlocking)
	rng := rand.New(rand.NewSource(dirSeed(t)))
	sr := MinPlus[float64]()
	accum := func(c, t float64) float64 { return c - 2*t }
	for _, n := range []int{50, 2500} {
		for _, threads := range []int{1, 2, 4} {
			ctx := ck1(NewContext(NonBlocking, nil, WithThreads(threads), withChunk(1)))
			in := InContext(ctx)
			a := accumGraph(t, rng, n, in)
			mask := ck1(NewVector[bool](n, in))
			for i := 0; i < n; i += 3 {
				ck(mask.SetElement(i%2 == 0, i))
			}
			for _, stored := range []int{n, n - 1, 0} {
				c := prefixVector(t, rng, n, stored, in)
				for _, aliased := range []bool{false, true} {
					for _, m := range []*Vector[bool]{nil, mask} {
						for _, dir := range []Direction{DirPull, DirPush} {
							desc := &Descriptor{Dir: dir}
							w := ck1(c.Dup())
							u := w
							if !aliased {
								u = prefixVector(t, rng, n, n/2, in)
							}
							// The three-call form first: it reads u, which the
							// one-call form may overwrite.
							prod, z, want := ck1(NewVector[float64](n, in)), ck1(NewVector[float64](n, in)), ck1(c.Dup())
							ck(VxM(prod, nil, nil, sr, u, a, desc))
							ck(EWiseAddVector(z, nil, nil, accum, c, prod, nil))
							ck(VectorApply(want, m, nil, Identity[float64], z, nil))
							ck(VxM(w, m, accum, sr, u, a, desc))
							sameVector(t, "accumulated product", w, want)
						}
					}
				}
			}
			ck(ctx.Free())
		}
	}
}

// TestMatVecAccumulatorErrors: an accumulator that panics inside the one-pass
// pull parks a §V execution error and w keeps its previous storage; a budget
// that refuses the operand's dense view degrades to the hash gather and the
// accumulated result is unchanged.
func TestMatVecAccumulatorErrors(t *testing.T) {
	setMode(t, NonBlocking)
	rng := rand.New(rand.NewSource(dirSeed(t)))
	const n = 400
	a := accumGraph(t, rng, n)
	u, w := prefixVector(t, rng, n, n/16), prefixVector(t, rng, n, n)
	before := ck1(w.Dup())
	pull := &Descriptor{Dir: DirPull}

	boom := func(c, t float64) float64 { panic("user accumulator bug") }
	ck(VxM(w, nil, boom, PlusTimes[float64](), u, a, pull))
	wantCode(t, w.Wait(Materialize), Panic)
	if w.ErrorString() == "" {
		t.Fatal("parked accumulator panic has an empty ErrorString")
	}
	w.mu.Lock()
	cur := w.cur
	w.mu.Unlock()
	old := ck1(before.snapshot())
	for k := range old.Ind {
		if cur.NNZ() != n || cur.Ind[k] != old.Ind[k] || cur.Val[k] != old.Val[k] {
			t.Fatalf("w after a panicking accumulator: entry %d differs from its previous storage", k)
		}
	}

	want := ck1(before.Dup())
	ck(VxM(want, nil, Plus[float64], PlusTimes[float64](), u, a, pull))
	// 9n bytes of view do not fit; the 64-slot table of u's 25 entries does.
	tight := ck1(NewContext(NonBlocking, nil, WithMemoryLimit(9*n-1)))
	ta, tu, tw := ck1(a.ViewInContext(tight)), ck1(NewVector[float64](n, InContext(tight))), ck1(before.Dup())
	ui, ux := ck2(u.ExtractTuples())
	ck(tu.Build(ui, ux, nil)) // a fresh snapshot: u's own has memoized its view by now
	ck(tw.SwitchContext(tight))
	ResetKernelCounts()
	ck(VxM(tw, nil, Plus[float64], PlusTimes[float64](), tu, ta, pull))
	sameVector(t, "accumulated under a refused view", tw, want)
	if degrades, _ := HardeningCounts(); degrades == 0 {
		t.Fatal("the tight budget produced no degradation: the limit was not exercised")
	}
	if used := tight.MemoryUsed(); used != 0 {
		t.Fatalf("budget leak: %d bytes still reserved after the drain", used)
	}
}

// TestVectorMaskIsBudgeted: the mask vector's compiled form is scratch of the
// product that asked for it, charged to its context — the n-byte bitmap when
// it fits, and when it does not a hash predicate, if that is smaller, as a
// counted degradation with the same result.
func TestVectorMaskIsBudgeted(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 4096
	free := ck1(NewContext(NonBlocking, nil, WithThreads(1)))
	run := func(ctx *Context, maskEntries int) (*Vector[bool], int64) {
		a := pathGraph(t, ctx, n)
		u, visited := ck1(NewVector[bool](n, InContext(ctx))), ck1(NewVector[bool](n, InContext(ctx)))
		ck(u.SetElement(true, 10))
		ck(u.SetElement(true, 2000))
		for i := 0; i < maskEntries; i++ {
			ck(visited.SetElement(true, 11+i))
		}
		ck(u.Wait(Materialize))
		ck(visited.Wait(Materialize))
		w := ck1(NewVector[bool](n, InContext(ctx)))
		base := ctx.MemoryPeak()
		ck(VxM(w, visited, nil, LOrLAnd(), u, a, &Descriptor{Replace: true, Structure: true, Complement: true, Dir: DirPush}))
		ck(w.Wait(Materialize))
		return w, ctx.MemoryPeak() - base
	}
	// The accumulator: the two frontier vertices' four products fill a
	// 16-slot table of an index and a bool each.
	const table = 16 * 9

	// 300 entries: the hash predicate's 1 024 slots are no smaller than the
	// bitmap, which is charged beside the table.
	roomy := ck1(NewContext(NonBlocking, nil, WithThreads(1), WithMemoryLimit(1<<20)))
	want, _ := run(free, 300)
	got, peak := run(roomy, 300)
	sameVector(t, "bitmap mask", got, want)
	if peak != table+n {
		t.Fatalf("push under a bitmap mask peaked at %d charged bytes, want %d (table) + %d (bitmap)", peak, table, n)
	}

	// Four entries, room for the table but not for n more bytes: the 16-slot
	// hash predicate serves, and the refusal is a counted degradation.
	tight := ck1(NewContext(NonBlocking, nil, WithThreads(1), WithMemoryLimit(table+n-1)))
	want, _ = run(free, 4)
	ResetKernelCounts()
	got, peak = run(tight, 4)
	sameVector(t, "refused bitmap", got, want)
	if degrades, _ := HardeningCounts(); degrades != 1 {
		t.Fatalf("a refused mask bitmap counted %d degradations, want 1", degrades)
	}
	if peak != table+16*9 {
		t.Fatalf("push under a refused bitmap peaked at %d charged bytes, want %d (table) + %d (16-slot predicate)", peak, table, 16*9)
	}
	if used := tight.MemoryUsed(); used != 0 {
		t.Fatalf("budget leak: %d bytes still reserved after the drain", used)
	}

	// A mask in the bitmap form, as BFS's visited becomes: the closure loop
	// reads it for nothing, and so does the family loop when the mask is
	// structural — it indexes the flags, complemented or not. A valued mask
	// costs the family loop an n-byte admit array. Every other vertex in the
	// frontier fills the SPA (a bool and a mark per column); with room for
	// the SPA and not for the array beside it, the valued push takes the
	// closure loop, a counted degradation, and the structural one its
	// family loop, no degradation.
	const spa = 2 * n
	runBitmap := func(ctx *Context, structural bool) (*Vector[bool], int64) {
		a := pathGraph(t, ctx, n)
		u, visited := ck1(NewVector[bool](n, InContext(ctx))), ck1(NewVector[bool](n, InContext(ctx)))
		m := ck1(NewVector[bool](n, InContext(ctx)))
		for i := 0; i < n; i += 2 {
			ck(u.SetElement(true, i))
		}
		for i := 0; i < 300; i++ {
			ck(m.SetElement(true, 11+i))
		}
		ck(visited.SetElement(true, 1))
		ck(VectorAssignScalar(visited, m, nil, true, All, DescS))
		bitArray(t, visited)
		ck(u.Wait(Materialize))
		w := ck1(NewVector[bool](n, InContext(ctx)))
		base := ctx.MemoryPeak()
		ck(VxM(w, visited, nil, LOrLAnd(), u, a, &Descriptor{Replace: true, Structure: structural, Complement: true, Dir: DirPush}))
		ck(w.Wait(Materialize))
		return w, ctx.MemoryPeak() - base
	}
	for _, structural := range []bool{false, true} {
		want, _ = runBitmap(free, structural)
		bitmapTight := ck1(NewContext(NonBlocking, nil, WithThreads(1), WithMemoryLimit(spa+n-1)))
		ResetKernelCounts()
		got, peak = runBitmap(bitmapTight, structural)
		sameVector(t, "refused admit array", got, want)
		wantDegrades := int64(1)
		if structural {
			wantDegrades = 0
		}
		if degrades, _ := HardeningCounts(); degrades != wantDegrades {
			t.Fatalf("structural=%v: a bitmap mask beside a full budget counted %d degradations, want %d", structural, degrades, wantDegrades)
		}
		if peak != spa {
			t.Fatalf("structural=%v: push under a bitmap mask peaked at %d charged bytes, want %d (SPA)", structural, peak, spa)
		}
		if used := bitmapTight.MemoryUsed(); used != 0 {
			t.Fatalf("budget leak: %d bytes still reserved after the drain", used)
		}
	}
}
