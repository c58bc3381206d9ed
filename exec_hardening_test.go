package grb

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/grblas/grb/internal/faults"
)

// Acceptance tests for the execution-hardening tentpole: memory budgets with
// graceful degradation, cancellation/deadline abort, and panic isolation.

// pathGraph builds the undirected path 0–1–…–(n-1) as a boolean adjacency
// matrix inside ctx, fully materialized.
func pathGraph(t *testing.T, ctx *Context, n int) *Matrix[bool] {
	t.Helper()
	a, err := NewMatrix[bool](n, n, InContext(ctx))
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	var is, js []Index
	var xs []bool
	for i := 0; i < n-1; i++ {
		is = append(is, Index(i), Index(i+1))
		js = append(js, Index(i+1), Index(i))
		xs = append(xs, true, true)
	}
	if err := a.Build(is, js, xs, Second[bool, bool]); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := a.Wait(Materialize); err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return a
}

// bfsLevelsInContext is a hand-rolled BFS-levels traversal with every object
// in ctx, so the context's budget governs each level's kernels. The graph
// must be symmetric (MxV over A equals the usual pull over Aᵀ then).
func bfsLevelsInContext(t *testing.T, ctx *Context, a *Matrix[bool], n int, src Index) *Vector[int] {
	t.Helper()
	desc := &Descriptor{Replace: true, Structure: true, Complement: true, Dir: DirAuto}
	levels, err := NewVector[int](n, InContext(ctx))
	if err != nil {
		t.Fatalf("NewVector: %v", err)
	}
	visited, err := NewVector[bool](n, InContext(ctx))
	if err != nil {
		t.Fatalf("NewVector: %v", err)
	}
	frontier, err := NewVector[bool](n, InContext(ctx))
	if err != nil {
		t.Fatalf("NewVector: %v", err)
	}
	if err := frontier.SetElement(true, src); err != nil {
		t.Fatalf("seed frontier: %v", err)
	}
	for depth := 0; ; depth++ {
		nv, err := frontier.Nvals()
		if err != nil {
			t.Fatalf("depth %d: Nvals: %v", depth, err)
		}
		if nv == 0 {
			break
		}
		if err := VectorAssignScalar(levels, frontier, nil, depth, All, DescS); err != nil {
			t.Fatalf("depth %d: assign levels: %v", depth, err)
		}
		if err := VectorAssignScalar(visited, frontier, nil, true, All, DescS); err != nil {
			t.Fatalf("depth %d: assign visited: %v", depth, err)
		}
		// frontier⟨¬visited,structure,replace⟩ = A ∨.∧ frontier
		if err := MxV(frontier, visited, nil, LOrLAnd(), a, frontier, desc); err != nil {
			t.Fatalf("depth %d: MxV: %v", depth, err)
		}
		if err := frontier.Wait(Materialize); err != nil {
			t.Fatalf("depth %d: frontier wait: %v", depth, err)
		}
	}
	if err := levels.Wait(Materialize); err != nil {
		t.Fatalf("levels wait: %v", err)
	}
	return levels
}

// TestBudgetedBFSMatchesUnbudgeted is the degradation acceptance test: a
// BFS drain under a memory limit far below the dense-route scratch must
// complete through degraded routes (direction flip away from the transpose,
// hash gather instead of the dense scatter) with results identical to the
// unbudgeted run.
func TestBudgetedBFSMatchesUnbudgeted(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 200
	free, err := NewContext(NonBlocking, nil, WithThreads(4), withChunk(1))
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	want := bfsLevelsInContext(t, free, pathGraph(t, free, n), n, 0)

	// 360 bytes: the push route's transpose (~n·16B) and the pull route's
	// dense gather (n·2B) are both unaffordable; the frontier-sized hash
	// gather (144 bytes for the one-vertex frontier of a path graph) fits
	// beside the visited mask — as a hash predicate while that is smaller
	// than the n-byte bitmap (the first levels), as the bitmap afterwards.
	const limit = 360
	tight, err := NewContext(NonBlocking, nil, WithThreads(4), withChunk(1), WithMemoryLimit(limit))
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	ResetKernelCounts()
	got := bfsLevelsInContext(t, tight, pathGraph(t, tight, n), n, 0)
	degrades, _ := HardeningCounts()
	if degrades == 0 {
		t.Fatal("tight budget produced no degradations: the limit was not exercised")
	}

	wi, wx, err := want.ExtractTuples()
	if err != nil {
		t.Fatalf("ExtractTuples: %v", err)
	}
	gi, gx, err := got.ExtractTuples()
	if err != nil {
		t.Fatalf("ExtractTuples: %v", err)
	}
	if len(wi) != n || len(gi) != len(wi) {
		t.Fatalf("level counts differ: unbudgeted %d, budgeted %d (want %d)", len(wi), len(gi), n)
	}
	for k := range wi {
		if wi[k] != gi[k] || wx[k] != gx[k] {
			t.Fatalf("levels diverge at %d: unbudgeted (%d)=%d, budgeted (%d)=%d",
				k, wi[k], wx[k], gi[k], gx[k])
		}
	}
	if used := tight.MemoryUsed(); used != 0 {
		t.Fatalf("budget leak: %d bytes still reserved after drain", used)
	}
	if lim := tight.MemoryLimit(); lim != limit {
		t.Fatalf("MemoryLimit = %d, want %d", lim, limit)
	}
}

// TestBudgetExhaustionParksOutOfMemory: when even the cheapest degraded
// route cannot be charged, the operation parks GrB_OUT_OF_MEMORY — it never
// crashes and never silently truncates.
func TestBudgetExhaustionParksOutOfMemory(t *testing.T) {
	setMode(t, NonBlocking)
	ctx, err := NewContext(NonBlocking, nil, WithThreads(2), withChunk(1), WithMemoryLimit(16))
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	a := pathGraph(t, ctx, 64)
	u, err := NewVector[bool](64, InContext(ctx))
	if err != nil {
		t.Fatalf("NewVector: %v", err)
	}
	if err := u.SetElement(true, 0); err != nil {
		t.Fatalf("SetElement: %v", err)
	}
	w, err := NewVector[bool](64, InContext(ctx))
	if err != nil {
		t.Fatalf("NewVector: %v", err)
	}
	if err := MxV(w, nil, nil, LOrLAnd(), a, u, nil); err != nil {
		t.Fatalf("MxV: %v", err)
	}
	if err := w.Wait(Materialize); Code(err) != OutOfMemory {
		t.Fatalf("16-byte budget: err = %v, want OutOfMemory", err)
	}
	if w.ErrorString() == "" {
		t.Fatal("parked OutOfMemory has empty ErrorString")
	}
	if used := ctx.MemoryUsed(); used != 0 {
		t.Fatalf("budget leak after abort: %d bytes", used)
	}
}

// TestBudgetWaitReservesNothingUnasked: draining a sequence charges the budget for
// nothing the caller did not ask for. A Build+Wait of a matrix big enough
// for any size heuristic to notice (2^17 entries, average degree 8) leaves
// the context's budget at zero, and a default-routed two-thread MxM on it
// hands every reservation back once the product is freed — so a serving
// root context inherits no standing charge per loaded graph.
func TestBudgetWaitReservesNothingUnasked(t *testing.T) {
	setMode(t, NonBlocking)
	ctx, err := NewContext(NonBlocking, nil, WithThreads(2), withChunk(1), WithMemoryLimit(1<<30))
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	const n, deg = 1 << 14, 8
	is := make([]Index, 0, n*deg)
	js := make([]Index, 0, n*deg)
	xs := make([]int64, 0, n*deg)
	for i := 0; i < n; i++ {
		for d := 0; d < deg; d++ {
			is = append(is, Index(i))
			js = append(js, Index((i+1+d*2047)%n))
			xs = append(xs, int64(1+d))
		}
	}
	a, err := NewMatrix[int64](n, n, InContext(ctx))
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if err := a.Build(is, js, xs, nil); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := a.Wait(Materialize); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if nv, err := a.Nvals(); err != nil || nv != n*deg {
		t.Fatalf("Nvals = %d, %v; want %d", nv, err, n*deg)
	}
	if used := ctx.MemoryUsed(); used != 0 {
		t.Fatalf("Build+Wait left %d bytes reserved, want 0", used)
	}

	c, err := NewMatrix[int64](n, n, InContext(ctx))
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if err := MxM(c, nil, nil, PlusTimes[int64](), a, a, nil); err != nil {
		t.Fatalf("MxM: %v", err)
	}
	if err := c.Wait(Materialize); err != nil {
		t.Fatalf("MxM Wait: %v", err)
	}
	if err := c.Free(); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if used := ctx.MemoryUsed(); used != 0 {
		t.Fatalf("MxM left %d bytes reserved after the product was freed, want 0", used)
	}
}

// TestBudgetVectorViewsDoNotLeak: the dense view a pull product gathers
// through is the operation's scratch, not a standing reservation. A PageRank-
// shaped loop — a fresh full frontier multiplied and freed every iteration —
// keeps the context's budget flat; charged persistently (as the view once
// was), each iteration left 131 072 bytes behind and iteration 512 of this
// loop parked GrB_OUT_OF_MEMORY with nothing live.
func TestBudgetVectorViewsDoNotLeak(t *testing.T) {
	setMode(t, NonBlocking)
	ctx, err := NewContext(NonBlocking, nil, WithThreads(1), WithMemoryLimit(64<<20))
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	const n, deg = 1 << 14, 8
	is := make([]Index, 0, n*deg)
	js := make([]Index, 0, n*deg)
	xs := make([]float64, 0, n*deg)
	for i := 0; i < n; i++ {
		for d := 0; d < deg; d++ {
			is = append(is, Index(i))
			js = append(js, Index((i+1+d*2047)%n))
			xs = append(xs, float64(1+d))
		}
	}
	a, err := NewMatrix[float64](n, n, InContext(ctx))
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if err := a.Build(is, js, xs, nil); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := a.Wait(Materialize); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	idx := make([]Index, n)
	ones := make([]float64, n)
	for i := range idx {
		idx[i], ones[i] = Index(i), 1
	}
	base := ctx.MemoryUsed()
	for iter := 0; iter < 600; iter++ {
		u, err := NewVector[float64](n, InContext(ctx))
		if err != nil {
			t.Fatalf("iteration %d: NewVector: %v", iter, err)
		}
		if err := u.Build(idx, ones, nil); err != nil {
			t.Fatalf("iteration %d: Build: %v", iter, err)
		}
		w, err := NewVector[float64](n, InContext(ctx))
		if err != nil {
			t.Fatalf("iteration %d: NewVector: %v", iter, err)
		}
		if err := MxV(w, nil, nil, PlusTimes[float64](), a, u, nil); err != nil {
			t.Fatalf("iteration %d: MxV: %v", iter, err)
		}
		if err := w.Wait(Materialize); err != nil {
			t.Fatalf("iteration %d: Wait: %v (budget at %d bytes)", iter, err, ctx.MemoryUsed())
		}
		if err := u.Free(); err != nil {
			t.Fatalf("iteration %d: Free: %v", iter, err)
		}
		if err := w.Free(); err != nil {
			t.Fatalf("iteration %d: Free: %v", iter, err)
		}
		if used := ctx.MemoryUsed(); used != base {
			t.Fatalf("iteration %d left %d bytes reserved beyond the %d held before the loop", iter, used-base, base)
		}
	}
}

// TestCancelParksCanceled: cancelling before the drain means the very first
// range checkpoint aborts — the sequence parks the Canceled execution error
// and surfaces it through Wait(Materialize) and ErrorString.
func TestCancelParksCanceled(t *testing.T) {
	setMode(t, NonBlocking)
	ctx, err := NewContext(NonBlocking, nil, WithThreads(2), withChunk(1), WithCancel())
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	a := pathGraph(t, ctx, 64)
	c, err := NewMatrix[bool](64, 64, InContext(ctx))
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if err := MxM(c, nil, nil, LOrLAnd(), a, a, nil); err != nil {
		t.Fatalf("MxM: %v", err)
	}
	if err := ctx.Cancel(); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if !ctx.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	if err := c.Wait(Materialize); Code(err) != Canceled {
		t.Fatalf("Wait after Cancel: err = %v, want Canceled", err)
	}
	if s := c.ErrorString(); !strings.Contains(s, "cancel") {
		t.Fatalf("ErrorString = %q, want it to mention cancellation", s)
	}
	// Cancel without WithCancel is an API error; on a nil context too.
	plain, err := NewContext(NonBlocking, nil)
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	if err := plain.Cancel(); Code(err) != InvalidValue {
		t.Fatalf("Cancel without WithCancel: err = %v, want InvalidValue", err)
	}
}

// TestCancelMidDrainParksWithinOneGranule: a Delay injection at the range
// checkpoint widens the cancellation window; a concurrent Cancel must abort
// at that same checkpoint (the documented one-range-granule latency), not
// run the kernel to completion.
func TestCancelMidDrainParksWithinOneGranule(t *testing.T) {
	setMode(t, NonBlocking)
	faults.Enable(faults.Rule{Site: "sparse.kernel.range", Action: faults.Delay, Delay: 50 * time.Millisecond})
	defer faults.Disable()
	ctx, err := NewContext(NonBlocking, nil, WithThreads(2), withChunk(1), WithCancel())
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	a := pathGraph(t, ctx, 128)
	c, err := NewMatrix[bool](128, 128, InContext(ctx))
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if err := MxM(c, nil, nil, LOrLAnd(), a, a, nil); err != nil {
		t.Fatalf("MxM: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond) // land inside the delayed checkpoint
		if err := ctx.Cancel(); err != nil {
			t.Errorf("Cancel: %v", err)
		}
	}()
	err = c.Wait(Materialize)
	wg.Wait()
	if Code(err) != Canceled {
		t.Fatalf("mid-drain cancel: err = %v, want Canceled", err)
	}
}

// TestCancelInterruptsSingleRangeProduct: at one thread a matrix product is a
// single row range, so the per-range checkpoint alone would only see a cancel
// after the whole product. The kernel also polls the hook every 64K flops:
// a cancel fired from inside the multiply operator parks Canceled long before
// the operator has seen every product, masked (mask-first) or not.
func TestCancelInterruptsSingleRangeProduct(t *testing.T) {
	setMode(t, NonBlocking)
	const n, deg, after = 2048, 16, 1000
	rng := rand.New(rand.NewSource(7))
	var is, js []Index
	var xs []int64
	for i := 0; i < n; i++ {
		for _, j := range rng.Perm(n)[:deg] {
			is, js, xs = append(is, Index(i)), append(js, Index(j)), append(xs, 1)
		}
	}
	for _, masked := range []bool{false, true} {
		ctx, err := NewContext(NonBlocking, nil, WithThreads(1), WithCancel())
		if err != nil {
			t.Fatalf("NewContext: %v", err)
		}
		a := ck1(NewMatrix[int64](n, n, InContext(ctx)))
		ck(a.Build(is, js, xs, nil))
		ck(a.Wait(Materialize))
		var mask *Matrix[bool]
		desc := (*Descriptor)(nil)
		if masked {
			mask = ck1(NewMatrix[bool](n, n, InContext(ctx)))
			ck(mask.Build(is, js, make([]bool, len(is)), nil))
			ck(mask.Wait(Materialize))
			desc = DescS
		}
		var calls atomic.Int64
		mul := func(x, y int64) int64 {
			if calls.Add(1) == after {
				if err := ctx.Cancel(); err != nil {
					t.Errorf("Cancel: %v", err)
				}
			}
			return x * y
		}
		c := ck1(NewMatrix[int64](n, n, InContext(ctx)))
		ck(MxM(c, mask, nil, Semiring[int64, int64, int64]{Add: PlusMonoid[int64](), Mul: mul}, a, a, desc))
		if err := c.Wait(Materialize); Code(err) != Canceled {
			t.Fatalf("masked=%v: err = %v after %d multiplies, want Canceled", masked, err, calls.Load())
		}
		// Every product is n·deg² = 524288 multiplies; the poll stops the
		// unmasked one within 64K flops and a row of the cancel.
		if got := calls.Load(); !masked && got > after+(1<<16)+deg*deg {
			t.Fatalf("the operator ran %d times after a cancel at call %d", got, after)
		}
		if s := c.ErrorString(); !strings.Contains(s, "cancel") {
			t.Fatalf("ErrorString = %q, want it to mention cancellation", s)
		}
		// The victim is a sticky-error object; the inputs are untouched.
		if nv, err := a.Nvals(); err != nil || nv != len(is) {
			t.Fatalf("input after the cancelled product: %d entries, err %v", nv, err)
		}
	}
}

// TestDeadlineParksCanceled: an expired WithDeadline aborts at the first
// checkpoint exactly like an explicit Cancel.
func TestDeadlineParksCanceled(t *testing.T) {
	setMode(t, NonBlocking)
	ctx, err := NewContext(NonBlocking, nil, WithThreads(2), withChunk(1), WithDeadline(time.Now().Add(-time.Second)))
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	a := pathGraph(t, ctx, 64)
	c, err := NewMatrix[bool](64, 64, InContext(ctx))
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if err := MxM(c, nil, nil, LOrLAnd(), a, a, nil); err != nil {
		t.Fatalf("MxM: %v", err)
	}
	if err := c.Wait(Materialize); Code(err) != Canceled {
		t.Fatalf("expired deadline: err = %v, want Canceled", err)
	}
	// A future deadline does not abort anything.
	future, err := NewContext(NonBlocking, nil, WithThreads(2), withChunk(1), WithDeadline(time.Now().Add(time.Hour)))
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	b := pathGraph(t, future, 64)
	d, err := NewMatrix[bool](64, 64, InContext(future))
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if err := MxM(d, nil, nil, LOrLAnd(), b, b, nil); err != nil {
		t.Fatalf("MxM: %v", err)
	}
	if err := d.Wait(Materialize); err != nil {
		t.Fatalf("future deadline aborted a healthy drain: %v", err)
	}
}

// TestInjectedPanicIsIsolated: a simulated kernel crash is recovered into a
// parked GrB_PANIC, the recovered-panic counter ticks, and the library keeps
// serving unrelated work afterwards.
func TestInjectedPanicIsIsolated(t *testing.T) {
	setMode(t, NonBlocking)
	a := chaosInputs(t).a
	ResetKernelCounts()
	faults.Enable(faults.Rule{Site: "sparse.spgemm.spa", Action: faults.Panic, Hit: 1})
	c, err := NewMatrix[float64](16, 16)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	// The untagged twin runs the closure loop over the dense SPA, whose site
	// the rule arms (the family loop has its own sites).
	if err := MxM(c, nil, nil, untagged(PlusTimes[float64]()), a, a, nil); err != nil {
		t.Fatalf("MxM: %v", err)
	}
	if err := c.Wait(Materialize); Code(err) != Panic {
		t.Fatalf("injected panic: err = %v, want Panic", err)
	}
	if s := c.ErrorString(); !strings.Contains(s, "panic") {
		t.Fatalf("ErrorString = %q, want it to mention the panic", s)
	}
	faults.Disable()
	if _, panics := HardeningCounts(); panics == 0 {
		t.Fatal("recovered-panic counter did not tick")
	}
	// The process — and fresh objects — are unaffected.
	d, err := NewMatrix[float64](16, 16)
	if err != nil {
		t.Fatalf("NewMatrix after panic: %v", err)
	}
	if err := MxM(d, nil, nil, PlusTimes[float64](), a, a, nil); err != nil {
		t.Fatalf("MxM after panic: %v", err)
	}
	if err := d.Wait(Materialize); err != nil {
		t.Fatalf("Wait after panic: %v", err)
	}
}

// TestUserOperatorPanicIsolated: the guarantee holds for genuine panics out
// of user-supplied operators, not only injected ones — in deferred kernels
// and in immediate-mode reductions.
func TestUserOperatorPanicIsolated(t *testing.T) {
	setMode(t, NonBlocking)
	a := mustMatrix(t, 8, 8, []Index{0, 1, 2}, []Index{1, 2, 3}, []float64{1, 2, 3})
	boom := func(x, y float64) float64 { panic("user operator bug") }
	c, err := NewMatrix[float64](8, 8)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if err := MxM(c, nil, nil, Semiring[float64, float64, float64]{
		Add: Monoid[float64]{Op: boom}, Mul: func(x, y float64) float64 { return x * y },
	}, a, a, nil); err != nil {
		t.Fatalf("MxM: %v", err)
	}
	// The add operator only fires on collisions; ensure the pattern has one.
	if err := c.Wait(Materialize); err != nil && Code(err) != Panic {
		t.Fatalf("user panic: err = %v, want nil or Panic", err)
	}
	// Immediate-mode: a panicking reduction operator returns GrB_PANIC
	// directly (no sequence to park on).
	if _, err := MatrixReduce(Monoid[float64]{Op: boom, Identity: 0}, a); Code(err) != Panic {
		t.Fatalf("immediate reduce panic: err = %v, want Panic", err)
	}
}
