package grb

import "testing"

// Tests of the budget ladder: every operation that reads an operand
// transposed reaches it through the one budgeted door, the push → pull flip
// gives the pull the whole budget, and budget_degrades counts route changes
// only.

// ladderMatrix builds, in a fresh unbudgeted context, an 8×8 matrix with two
// entries per row off the diagonal, and returns it with the bytes its
// transpose is charged: nnz index+value slots and cols+1 row pointers.
func ladderMatrix(t *testing.T) (*Matrix[float64], int64) {
	t.Helper()
	const n = 8
	a := ck1(NewMatrix[float64](n, n))
	for i := 0; i < n; i++ {
		ck(a.SetElement(float64(1+i), Index(i), Index((i+1)%n)))
		ck(a.SetElement(float64(10+i), Index(i), Index((i+3)%n)))
	}
	ck(a.Wait(Materialize))
	return a, int64(2*n)*16 + int64(n+1)*8
}

// transposeClosures are the nine operation kernels that read an operand
// transposed, each run on a view of a in ctx, returning what the drain
// reports.
var transposeClosures = []struct {
	name string
	run  func(ctx *Context, a *Matrix[float64]) error
}{
	{"MxM", func(ctx *Context, a *Matrix[float64]) error {
		c := ck1(NewMatrix[float64](8, 8, InContext(ctx)))
		return drained(c, MxM(c, nil, nil, PlusTimes[float64](), a, a, DescT0))
	}},
	{"MxV pinned pull", func(ctx *Context, a *Matrix[float64]) error {
		u, w := ck1(NewVector[float64](8, InContext(ctx))), ck1(NewVector[float64](8, InContext(ctx)))
		ck(u.SetElement(1, 2))
		return drained(w, MxV(w, nil, nil, PlusTimes[float64](), a, u, &Descriptor{Transpose0: true, Dir: DirPull}))
	}},
	{"MatrixApply", func(ctx *Context, a *Matrix[float64]) error {
		c := ck1(NewMatrix[float64](8, 8, InContext(ctx)))
		return drained(c, MatrixApply(c, nil, nil, Identity[float64], a, DescT0))
	}},
	{"EWiseAddMatrix", func(ctx *Context, a *Matrix[float64]) error {
		c := ck1(NewMatrix[float64](8, 8, InContext(ctx)))
		return drained(c, EWiseAddMatrix(c, nil, nil, Plus[float64], a, a, DescT0))
	}},
	{"Transpose", func(ctx *Context, a *Matrix[float64]) error {
		c := ck1(NewMatrix[float64](8, 8, InContext(ctx)))
		return drained(c, Transpose(c, nil, nil, a, nil))
	}},
	{"Kronecker", func(ctx *Context, a *Matrix[float64]) error {
		c := ck1(NewMatrix[float64](64, 64, InContext(ctx)))
		return drained(c, Kronecker(c, nil, nil, Times[float64], a, a, DescT0))
	}},
	{"MatrixExtract", func(ctx *Context, a *Matrix[float64]) error {
		c := ck1(NewMatrix[float64](8, 8, InContext(ctx)))
		return drained(c, MatrixExtract(c, nil, nil, a, All, All, DescT0))
	}},
	{"ColExtract", func(ctx *Context, a *Matrix[float64]) error {
		w := ck1(NewVector[float64](8, InContext(ctx)))
		return drained(w, ColExtract(w, nil, nil, a, All, 3, DescT0))
	}},
	{"MatrixAssign", func(ctx *Context, a *Matrix[float64]) error {
		c := ck1(NewMatrix[float64](8, 8, InContext(ctx)))
		return drained(c, MatrixAssign(c, nil, nil, a, All, All, DescT0))
	}},
}

// drained is the drain's report on o after an operation returned err.
func drained(o interface{ Wait(WaitMode) error }, err error) error {
	if err != nil {
		return err
	}
	return o.Wait(Materialize)
}

// TestTransposeIsChargedByEveryOperation: each of the nine closures charges
// the transpose it reads. Under a budget one byte short of it, each parks
// OutOfMemory and holds nothing; with room, the transpose stays charged to
// the context — the cached view outlives the operation — until the context
// is freed.
func TestTransposeIsChargedByEveryOperation(t *testing.T) {
	setMode(t, NonBlocking)
	for _, tc := range transposeClosures {
		a, bytes := ladderMatrix(t)
		tight := ck1(NewContext(NonBlocking, nil, WithMemoryLimit(bytes-1)))
		err := tc.run(tight, ck1(a.ViewInContext(tight)))
		if Code(err) != OutOfMemory {
			t.Errorf("%s under %d B, its transpose %d B: err = %v, want OutOfMemory", tc.name, bytes-1, bytes, err)
		}
		if used := tight.MemoryUsed(); used != 0 {
			t.Errorf("%s: a refused transpose left %d B reserved", tc.name, used)
		}

		a, _ = ladderMatrix(t)
		gov := ck1(NewContext(NonBlocking, nil, WithMemoryLimit(1<<20)))
		room := ck1(NewContext(NonBlocking, gov, WithMemoryLimit(1<<20)))
		if err := tc.run(room, ck1(a.ViewInContext(room))); err != nil {
			t.Errorf("%s with room: %v", tc.name, err)
		}
		if used := room.MemoryUsed(); used != bytes {
			t.Errorf("%s with room: %d B reserved after the drain, want the transpose's %d", tc.name, used, bytes)
		}
		ck(room.Free())
		if used := gov.MemoryUsed(); used != 0 {
			t.Errorf("%s: %d B still rolled up after Free", tc.name, used)
		}
	}
}

// TestTransposeChargeStandsUntilFree: the transpose an operation caches on
// an input's snapshot stays charged until the context is freed, also after
// the input changes. A budgeted loop that transposes an input it changes
// every iteration gains one transpose of charge an iteration and parks
// OutOfMemory once they outgrow the limit; the same loop run in a child
// context freed every iteration holds nothing between iterations.
func TestTransposeChargeStandsUntilFree(t *testing.T) {
	setMode(t, NonBlocking)
	a, bytes := ladderMatrix(t)
	step := func(ctx *Context, k int) error {
		// A new value in place: a's next snapshot has no cached transpose
		// and the same bytes.
		ck(a.SetElement(float64(100+k), Index(k%8), Index((k+1)%8)))
		at := ck1(NewMatrix[float64](8, 8, InContext(ctx)))
		return drained(at, Transpose(at, nil, nil, ck1(a.ViewInContext(ctx)), nil))
	}
	ctx := ck1(NewContext(NonBlocking, nil, WithMemoryLimit(3*bytes+bytes/2)))
	for k := 0; k < 3; k++ {
		if err := step(ctx, k); err != nil {
			t.Fatalf("iteration %d: %v", k, err)
		}
		if used := ctx.MemoryUsed(); used != int64(k+1)*bytes {
			t.Errorf("iteration %d: %d B reserved, want %d transposes of %d B", k, used, k+1, bytes)
		}
	}
	wantCode(t, step(ctx, 3), OutOfMemory)
	ck(ctx.Free())

	gov := ck1(NewContext(NonBlocking, nil, WithMemoryLimit(1<<20)))
	for k := 0; k < 12; k++ {
		child := ck1(NewContext(NonBlocking, gov, WithMemoryLimit(bytes+bytes/2)))
		if err := step(child, k); err != nil {
			t.Fatalf("iteration %d in a child context: %v", k, err)
		}
		ck(child.Free())
		if used := gov.MemoryUsed(); used != 0 {
			t.Fatalf("iteration %d: %d B still rolled up after the child's Free", k, used)
		}
	}
}

// TestColAssignLoopHoldsNothing: ColAssign reads no transpose, so a budgeted
// loop of column assignments, each superseding the matrix it read, leaves
// nothing reserved after any drain — for four times as many iterations as
// the budget would hold transposes of the matrix.
func TestColAssignLoopHoldsNothing(t *testing.T) {
	setMode(t, NonBlocking)
	a, bytes := ladderMatrix(t)
	ctx := ck1(NewContext(NonBlocking, nil, WithMemoryLimit(2*bytes)))
	c := ck1(a.ViewInContext(ctx))
	u := ck1(NewVector[float64](8, InContext(ctx)))
	for k := 0; k < 8; k++ {
		ck(u.SetElement(float64(k), 4))
		if err := drained(c, ColAssign(c, nil, nil, u, All, Index(k), nil)); err != nil {
			t.Fatalf("iteration %d: %v", k, err)
		}
		if used := ctx.MemoryUsed(); used != 0 {
			t.Fatalf("iteration %d: %d B reserved after the drain", k, used)
		}
		if x, ok, err := c.ExtractElement(4, Index(k)); err != nil || !ok || x != float64(k) {
			t.Fatalf("iteration %d: C(4, %d) = %v, %v, %v; want %d", k, k, x, ok, err, k)
		}
	}
}

// skewedGraph is the matrix the flip tests push through: n vertices, row 0
// holding hub entries and every other row five.
func skewedGraph(t *testing.T, n, hub int) *Matrix[bool] {
	t.Helper()
	a := ck1(NewMatrix[bool](n, n))
	var is, js []Index
	for j := 1; j <= hub; j++ {
		is, js = append(is, 0), append(js, Index(j))
	}
	for i := 1; i < n; i++ {
		for d := 1; d <= 5; d++ {
			is, js = append(is, Index(i)), append(js, Index((i+d*97)%n))
		}
	}
	xs := make([]bool, len(is))
	for k := range xs {
		xs[k] = true
	}
	ck(a.Build(is, js, xs, LOr))
	ck(a.Wait(Materialize))
	return a
}

// frontierStep runs w⟨¬s(m)⟩ = u ∨.∧ A in ctx for a one-vertex frontier {0}
// and a two-entry mask, auto-routed.
func frontierStep(ctx *Context, a *Matrix[bool]) (*Vector[bool], error) {
	n := ck1(a.Nrows())
	u, m, w := ck1(NewVector[bool](n, InContext(ctx))), ck1(NewVector[bool](n, InContext(ctx))), ck1(NewVector[bool](n, InContext(ctx)))
	ck(u.SetElement(true, 0))
	ck(m.SetElement(true, 0))
	ck(m.SetElement(true, 1))
	desc := &Descriptor{Replace: true, Structure: true, Complement: true}
	return w, drained(w, VxM(w, m, nil, LOrLAnd(), u, a, desc))
}

// TestFlipReleasesThePushReservations: a push that fails for its
// accumulator flips to the pull with everything it reserved released. The
// hub's 2 100 products need more than the budget for either push
// accumulator; the push first charges a hash mask predicate. The pull reads
// Aᵀ, warmed in an unbudgeted context, and needs a mask predicate and a
// frontier-sized hash gather, which fit only if the push's predicate was
// handed back.
func TestFlipReleasesThePushReservations(t *testing.T) {
	setMode(t, NonBlocking)
	a := skewedGraph(t, 4096, 2100)
	free := ck1(NewContext(NonBlocking, nil))
	fa := ck1(a.ViewInContext(free))
	at := ck1(NewMatrix[bool](4096, 4096, InContext(free)))
	ck(drained(at, Transpose(at, nil, nil, fa, nil))) // warms Aᵀ on the shared snapshot
	want, err := frontierStep(free, fa)
	ck(err)

	tight := ck1(NewContext(NonBlocking, nil, WithMemoryLimit(400)))
	ResetKernelCounts()
	got, err := frontierStep(tight, ck1(a.ViewInContext(tight)))
	if err != nil {
		t.Fatalf("flipped step under 400 B: %v", err)
	}
	if pushes, pulls := DirectionCounts(); pushes != 1 || pulls != 1 {
		t.Errorf("direction counts = %d push, %d pull; want the refused push and the flip's pull", pushes, pulls)
	}
	wi, _ := ck2(want.ExtractTuples())
	gi, _ := ck2(got.ExtractTuples())
	if len(gi) != len(wi) || len(wi) == 0 {
		t.Fatalf("budgeted step reached %d vertices, unbudgeted %d", len(gi), len(wi))
	}
	for k := range wi {
		if wi[k] != gi[k] {
			t.Fatalf("entry %d: budgeted %d, unbudgeted %d", k, gi[k], wi[k])
		}
	}
	if used := tight.MemoryUsed(); used != 0 {
		t.Errorf("%d B still reserved after the drain", used)
	}
}

// TestBudgetDegradesCountRouteChanges: budget_degrades counts the routes a
// refusal changed, not the refusals. A push whose transpose is refused and
// that flips to a pull counts the flip once; an MxM whose transpose is
// refused has no other route and parks OutOfMemory, counting nothing.
func TestBudgetDegradesCountRouteChanges(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 200
	// The transpose of the path is ~26·n bytes; the pull's dense gather and
	// the frontier's dense view fit in 10·n.
	ctx := ck1(NewContext(NonBlocking, nil, WithMemoryLimit(10*n)))
	a := pathGraph(t, ctx, n)
	u, w := ck1(NewVector[bool](n, InContext(ctx))), ck1(NewVector[bool](n, InContext(ctx)))
	ck(u.SetElement(true, n/2))
	ResetKernelCounts()
	if err := drained(w, MxV(w, nil, nil, LOrLAnd(), a, u, nil)); err != nil {
		t.Fatalf("MxV under %d B: %v", 10*n, err)
	}
	vectorEquals(t, w, []Index{n/2 - 1, n/2 + 1}, []bool{true, true})
	if pushes, pulls := DirectionCounts(); pushes != 0 || pulls != 1 {
		t.Errorf("direction counts = %d push, %d pull; want the flip's one pull", pushes, pulls)
	}
	if degrades, _ := HardeningCounts(); degrades != 1 {
		t.Errorf("a flip after a refused transpose counted %d degrades, want 1", degrades)
	}

	ResetKernelCounts()
	c := ck1(NewMatrix[bool](n, n, InContext(ctx)))
	wantCode(t, drained(c, MxM(c, nil, nil, LOrLAnd(), a, a, DescT0)), OutOfMemory)
	if degrades, _ := HardeningCounts(); degrades != 0 {
		t.Errorf("an MxM that parked OutOfMemory counted %d degrades, want 0", degrades)
	}
	if used := ctx.MemoryUsed(); used != 0 {
		t.Errorf("%d B still reserved", used)
	}
}

// TestTwoThreadSpGEMMNearItsLimit sweeps a two-thread product's budget from
// a thirty-second of its unbudgeted peak to the peak: at every limit the drain either returns
// the exact product or parks OutOfMemory, and it leaves nothing reserved.
// Two workers' accumulators are charged side by side; a range the budget
// refuses a dense SPA takes the hash one.
func TestTwoThreadSpGEMMNearItsLimit(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 300
	a := ck1(NewMatrix[int64](n, n))
	for i := 0; i < n; i++ {
		for d := 1; d <= 4; d++ {
			ck(a.SetElement(int64(d), Index(i), Index((i*7+d*13)%n)))
		}
	}
	ck(a.Wait(Materialize))
	product := func(limit int64) (*Matrix[int64], *Context, error) {
		ctx := ck1(NewContext(NonBlocking, nil, WithThreads(2), withChunk(1), WithMemoryLimit(limit)))
		va := ck1(a.ViewInContext(ctx))
		c := ck1(NewMatrix[int64](n, n, InContext(ctx)))
		return c, ctx, drained(c, MxM(c, nil, nil, PlusTimes[int64](), va, va, nil))
	}
	want, ctx, err := product(1 << 30)
	ck(err)
	peak := ctx.MemoryPeak()
	wi, wj, wx := ck3(want.ExtractTuples())

	var exact, parked int
	ResetKernelCounts()
	for k := int64(1); k <= 32; k++ {
		limit := peak * k / 32
		got, ctx, err := product(limit)
		if used := ctx.MemoryUsed(); used != 0 {
			t.Fatalf("limit %d: %d B still reserved", limit, used)
		}
		if err != nil {
			wantCode(t, err, OutOfMemory)
			parked++
			continue
		}
		gi, gj, gx := ck3(got.ExtractTuples())
		if len(gi) != len(wi) {
			t.Fatalf("limit %d: %d entries, want %d", limit, len(gi), len(wi))
		}
		for e := range wi {
			if gi[e] != wi[e] || gj[e] != wj[e] || gx[e] != wx[e] {
				t.Fatalf("limit %d: entry %d is (%d,%d)=%d, want (%d,%d)=%d", limit, e, gi[e], gj[e], gx[e], wi[e], wj[e], wx[e])
			}
		}
		exact++
	}
	if exact == 0 || parked == 0 {
		t.Fatalf("the sweep under a %d B peak gave %d exact products and %d parked; want both", peak, exact, parked)
	}
	if degrades, _ := HardeningCounts(); degrades == 0 {
		t.Error("no limit of the sweep took the hash SPA")
	}
}
