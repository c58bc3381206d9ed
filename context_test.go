package grb

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/grblas/grb/internal/faults"
)

func TestInitFinalizeLifecycle(t *testing.T) {
	reset()
	// Using the library before Init is an UninitializedObject error.
	if _, err := NewMatrix[int](2, 2); Code(err) != UninitializedObject {
		t.Fatalf("pre-Init NewMatrix: %v", err)
	}
	if err := Init(Mode(42)); Code(err) != InvalidValue {
		t.Fatalf("bad mode: %v", err)
	}
	if err := Init(Blocking); err != nil {
		t.Fatal(err)
	}
	// Double Init is an error.
	if err := Init(Blocking); Code(err) != InvalidValue {
		t.Fatalf("double Init: %v", err)
	}
	if err := Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := Finalize(); Code(err) != UninitializedObject {
		t.Fatalf("double Finalize: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if Blocking.String() != "GrB_BLOCKING" || NonBlocking.String() != "GrB_NONBLOCKING" {
		t.Error("mode names")
	}
	if Mode(9).String() != "GrB_Mode(?)" {
		t.Error("unknown mode name")
	}
}

func TestContextHierarchyThreads(t *testing.T) {
	setMode(t, NonBlocking)
	top, err := GlobalContext()
	if err != nil {
		t.Fatal(err)
	}
	if top.Threads() != runtime.GOMAXPROCS(0) {
		t.Fatalf("top threads = %d", top.Threads())
	}
	// Child with an explicit budget.
	c8, err := NewContext(NonBlocking, nil, WithThreads(8))
	if err != nil {
		t.Fatal(err)
	}
	// Grandchild inheriting (0) is bounded by the parent...
	inherit, err := NewContext(NonBlocking, c8)
	if err != nil {
		t.Fatal(err)
	}
	if inherit.Threads() != 8 {
		t.Fatalf("inherited threads = %d, want 8", inherit.Threads())
	}
	// ...and a grandchild asking for more is clamped by the ancestor.
	c2, err := NewContext(NonBlocking, c8, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Threads() != 2 {
		t.Fatalf("c2 threads = %d", c2.Threads())
	}
	big, err := NewContext(NonBlocking, c2, WithThreads(64))
	if err != nil {
		t.Fatal(err)
	}
	if big.Threads() != 2 {
		t.Fatalf("hierarchical min violated: %d", big.Threads())
	}
	if big.Parent() != c2 || c2.Parent() != c8 {
		t.Fatal("parent chain wrong")
	}
	if _, err := NewContext(NonBlocking, nil, WithThreads(-1)); Code(err) != InvalidValue {
		t.Fatalf("negative budget: %v", err)
	}
	if _, err := NewContext(Mode(7), nil); Code(err) != InvalidValue {
		t.Fatalf("bad mode: %v", err)
	}
}

// TestContextChunk holds the chunk to what withChunk documents, the minimum
// work per thread: a kernel gets one worker per chunk of the work it counts.
// At chunk 100 a 199-entry reduction is one worker's (the rule this replaced,
// work/chunk + 1, handed it to two and 1 000 entries to eleven), 200 entries
// are two workers' and 1 000 all four's; the op event reports what ran.
func TestContextChunk(t *testing.T) {
	setMode(t, NonBlocking)
	if top := ck1(GlobalContext()); top.fork().Grain != 1<<17 {
		t.Fatalf("default chunk = %d", top.fork().Grain)
	}
	c := ck1(NewContext(NonBlocking, nil, WithThreads(4), withChunk(100)))
	if c.fork().Grain != 100 {
		t.Fatalf("chunk = %d", c.fork().Grain)
	}
	child := ck1(NewContext(NonBlocking, c))
	if child.fork().Grain != 100 {
		t.Fatalf("inherited chunk = %d", child.fork().Grain)
	}
	nnzs := []int{0, 50, 199, 200, 250, 399, 1000}
	want := []int{1, 1, 1, 2, 2, 3, 4}
	got := tracedThreads(t, func() {
		for _, nnz := range nnzs {
			a := ck1(NewMatrix[int](1, max(nnz, 1), InContext(child)))
			for j := 0; j < nnz; j++ {
				ck(a.SetElement(1, 0, j))
			}
			if sum, err := MatrixReduce(PlusMonoid[int](), a); err != nil || sum != nnz {
				t.Fatalf("nnz %d: sum %d, %v", nnz, sum, err)
			}
		}
	})["MatrixReduce"]
	if !slices.Equal(got, want) {
		t.Fatalf("workers at chunk 100, 4 threads, for %v entries: %v, want %v", nnzs, got, want)
	}
}

// TestChunkHookForks pins the hook every forced-fork battery stands on: at
// chunk 1 and two threads, a 64-entry product — a sliver of the default
// chunk — runs on two workers, where the same product at the default chunk
// runs on one. A hook that stopped reaching fork would leave those batteries
// running serially and passing.
func TestChunkHookForks(t *testing.T) {
	setMode(t, NonBlocking)
	run := func(opts ...ContextOption) []int {
		ctx := ck1(NewContext(NonBlocking, nil, append(opts, WithThreads(2))...))
		defer func() { ck(ctx.Free()) }()
		a := ck1(NewMatrix[float64](8, 8, InContext(ctx)))
		var I, J []Index
		var X []float64
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				I, J, X = append(I, i), append(J, j), append(X, 1)
			}
		}
		ck(a.Build(I, J, X, nil))
		u := ck1(NewVector[float64](8, InContext(ctx)))
		ck(VectorAssignScalar(u, nil, nil, 1, All, nil))
		w := ck1(NewVector[float64](8, InContext(ctx)))
		return tracedThreads(t, func() {
			ck(MxV(w, nil, nil, PlusTimes[float64](), a, u, DescPull))
			ck(w.Wait(Materialize))
		})["MxV"]
	}
	if got := run(withChunk(1)); !slices.Equal(got, []int{2}) {
		t.Fatalf("MxV workers at chunk 1, 2 threads: %v, want [2]", got)
	}
	if got := run(); !slices.Equal(got, []int{1}) {
		t.Fatalf("MxV workers at the default chunk, 2 threads: %v, want [1]", got)
	}
}

func TestContextFree(t *testing.T) {
	setMode(t, NonBlocking)
	c := ck1(NewContext(NonBlocking, nil, WithThreads(2)))
	if err := c.Free(); err != nil {
		t.Fatal(err)
	}
	if err := c.Free(); Code(err) != UninitializedObject {
		t.Fatalf("double free: %v", err)
	}
	// Objects cannot be created in a freed context.
	if _, err := NewMatrix[int](2, 2, InContext(c)); Code(err) != UninitializedObject {
		t.Fatalf("new in freed ctx: %v", err)
	}
	// A freed context cannot parent a new one.
	if _, err := NewContext(NonBlocking, c); Code(err) != UninitializedObject {
		t.Fatalf("child of freed ctx: %v", err)
	}
	var nilCtx *Context
	if err := nilCtx.Free(); Code(err) != NullPointer {
		t.Fatalf("nil free: %v", err)
	}
}

// TestContextSharingRequired checks §IV's rule that all objects of an
// operation share one context.
func TestContextSharingRequired(t *testing.T) {
	setMode(t, NonBlocking)
	c1 := ck1(NewContext(NonBlocking, nil, WithThreads(1)))
	c2 := ck1(NewContext(NonBlocking, nil, WithThreads(1)))
	a := ck1(NewMatrix[int](2, 2, InContext(c1)))
	b := ck1(NewMatrix[int](2, 2, InContext(c2)))
	c := ck1(NewMatrix[int](2, 2, InContext(c1)))
	err := MxM(c, nil, nil, PlusTimes[int](), a, b, nil)
	wantCode(t, err, InvalidValue)

	// Context_switch moves b into c1, making the operation legal (Fig. 2).
	if err := b.SwitchContext(c1); err != nil {
		t.Fatal(err)
	}
	if err := MxM(c, nil, nil, PlusTimes[int](), a, b, nil); err != nil {
		t.Fatal(err)
	}
	got, err := b.Context()
	if err != nil || got != c1 {
		t.Fatalf("Context() = %v, %v", got, err)
	}
}

// TestContextBoundOperations verifies operations actually run under a
// restricted context without error and produce identical results.
func TestContextBoundOperations(t *testing.T) {
	setMode(t, NonBlocking)
	for _, threads := range []int{1, 2, 5} {
		ctx, err := NewContext(NonBlocking, nil, WithThreads(threads), withChunk(1))
		if err != nil {
			t.Fatal(err)
		}
		a := ck1(NewMatrix[int](8, 8, InContext(ctx)))
		var I, J []Index
		var X []int
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if (i+j)%3 == 0 {
					I = append(I, i)
					J = append(J, j)
					X = append(X, i*8+j+1)
				}
			}
		}
		if err := a.Build(I, J, X, nil); err != nil {
			t.Fatal(err)
		}
		c := ck1(NewMatrix[int](8, 8, InContext(ctx)))
		if err := MxM(c, nil, nil, PlusTimes[int](), a, a, nil); err != nil {
			t.Fatal(err)
		}
		sum, err := MatrixReduce(PlusMonoid[int](), c)
		if err != nil {
			t.Fatal(err)
		}
		if sum == 0 {
			t.Fatal("empty product")
		}
		// Same computation in the default context must agree.
		a2 := mustMatrix(t, 8, 8, I, J, X)
		c2 := ck1(NewMatrix[int](8, 8))
		if err := MxM(c2, nil, nil, PlusTimes[int](), a2, a2, nil); err != nil {
			t.Fatal(err)
		}
		sum2 := ck1(MatrixReduce(PlusMonoid[int](), c2))
		if sum != sum2 {
			t.Fatalf("threads=%d sum %d != %d", threads, sum, sum2)
		}
	}
}

// TestHierarchicalContextResolution checks the nested-context reading of the
// §IV sharing rule: operands whose contexts lie on one ancestor chain are
// legal, and the deepest context governs execution — its deadline and budget
// apply even when the other operands belong to ancestors.
func TestHierarchicalContextResolution(t *testing.T) {
	setMode(t, NonBlocking)
	mid := ck1(NewContext(NonBlocking, nil, WithThreads(2)))
	leaf := ck1(NewContext(NonBlocking, mid, WithThreads(1)))

	// a lives in the top-level context (no InContext), u in mid, w in leaf:
	// three depths on one chain — the operation is legal.
	a := ck1(NewMatrix[int](3, 3))
	ck(a.SetElement(1, 0, 1))
	ck(a.SetElement(1, 1, 2))
	u := ck1(NewVector[int](3, InContext(mid)))
	ck(u.SetElement(1, 0))
	w := ck1(NewVector[int](3, InContext(leaf)))
	if err := VxM(w, nil, nil, PlusTimes[int](), u, a, nil); err != nil {
		t.Fatalf("chain-nested operands: %v", err)
	}
	vectorEquals(t, w, []Index{1}, []int{1})

	// Order must not matter: deepest-first resolves the same way.
	w2 := ck1(NewVector[int](3, InContext(leaf)))
	if err := EWiseAddVector(w2, nil, nil, Plus[int], w, u, nil); err != nil {
		t.Fatalf("deep output, shallow inputs: %v", err)
	}

	// Sibling branches still violate the sharing rule.
	sib := ck1(NewContext(NonBlocking, mid, WithThreads(1)))
	other := ck1(NewContext(NonBlocking, nil))
	v := ck1(NewVector[int](3, InContext(sib)))
	x := ck1(NewVector[int](3, InContext(other)))
	wantCode(t, EWiseAddVector(v, nil, nil, Plus[int], v, x, nil), InvalidValue)
}

// TestHierarchicalDeepestGoverns proves the deepest context's resource
// controls bind the operation: a canceled leaf context aborts an operation
// whose other operands live in healthy ancestors.
func TestHierarchicalDeepestGoverns(t *testing.T) {
	setMode(t, NonBlocking)
	a := ck1(NewMatrix[bool](64, 64))
	for i := 0; i < 63; i++ {
		ck(a.SetElement(true, Index(i), Index(i+1)))
	}
	ck(a.Wait(Materialize))

	leaf := ck1(NewContext(NonBlocking, nil, WithCancel()))
	ck(leaf.Cancel())
	w := ck1(NewVector[bool](64, InContext(leaf)))
	u := ck1(NewVector[bool](64))
	ck(u.SetElement(true, 0))
	// Output in the canceled leaf, inputs in the top context: the op must
	// run under the leaf and park Canceled.
	err := VxM(w, nil, nil, LOrLAnd(), u, a, nil)
	if err == nil {
		err = w.Wait(Materialize)
	}
	wantCode(t, err, Canceled)
}

// TestViewInContext checks the O(1) snapshot-view primitive: a view shares
// the completed snapshot, lives in its own context, is isolated from later
// writes on either side, and carries the view context's resource limits.
func TestViewInContext(t *testing.T) {
	setMode(t, NonBlocking)
	a := ck1(NewMatrix[int](4, 4))
	ck(a.SetElement(7, 0, 1))
	ck(a.SetElement(9, 2, 3))

	// Validation: nil and freed target contexts.
	if _, err := a.ViewInContext(nil); Code(err) != NullPointer {
		t.Fatalf("nil ctx: %v", err)
	}
	dead := ck1(NewContext(NonBlocking, nil))
	ck(dead.Free())
	if _, err := a.ViewInContext(dead); Code(err) != UninitializedObject {
		t.Fatalf("freed ctx: %v", err)
	}

	ctx := ck1(NewContext(NonBlocking, nil, WithThreads(1)))
	v := ck1(a.ViewInContext(ctx))
	got := ck1(v.Context())
	if got != ctx {
		t.Fatalf("view context = %v", got)
	}
	// The view sees the completed snapshot.
	if nv := ck1(v.Nvals()); nv != 2 {
		t.Fatalf("view nvals = %d", nv)
	}
	// Writes through the view never touch the original (snapshot
	// immutability + install-on-write)...
	ck(v.SetElement(1, 3, 3))
	ck(v.Wait(Materialize))
	if nv := ck1(a.Nvals()); nv != 2 {
		t.Fatalf("write-through-view mutated original: nvals=%d", nv)
	}
	// ...and writes through the original never reach the view.
	ck(a.SetElement(1, 1, 1))
	ck(a.Wait(Materialize))
	if nv := ck1(v.Nvals()); nv != 3 {
		t.Fatalf("write-through-original mutated view: nvals=%d", nv)
	}

	// Views work as operands in their context, with lagraph-style outputs.
	w := ck1(NewVector[int](4, InContext(ctx)))
	u := ck1(NewVector[int](4, InContext(ctx)))
	ck(u.SetElement(1, 0))
	if err := VxM(w, nil, nil, PlusTimes[int](), u, v, nil); err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, w, []Index{1}, []int{7})
}

// TestViewInContextBudgetIsolation is the serving story end to end: two
// views of one shared matrix, one in a generous context and one in a
// starved context; the starved query parks OutOfMemory while the healthy
// query — and the shared snapshot — are unaffected.
func TestViewInContextBudgetIsolation(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 256
	a := ck1(NewMatrix[float64](n, n))
	for i := 0; i < n-1; i++ {
		ck(a.SetElement(1.5, Index(i), Index(i+1)))
		ck(a.SetElement(0.5, Index(i+1), Index(i)))
	}
	ck(a.Wait(Materialize))

	starved := ck1(NewContext(NonBlocking, nil, WithMemoryLimit(1)))
	rich := ck1(NewContext(NonBlocking, nil))
	vs := ck1(a.ViewInContext(starved))
	vr := ck1(a.ViewInContext(rich))

	cs := ck1(NewMatrix[float64](n, n, InContext(starved)))
	err := MxM(cs, nil, nil, PlusTimes[float64](), vs, vs, nil)
	if err == nil {
		err = cs.Wait(Materialize)
	}
	wantCode(t, err, OutOfMemory)

	cr := ck1(NewMatrix[float64](n, n, InContext(rich)))
	if err := MxM(cr, nil, nil, PlusTimes[float64](), vr, vr, nil); err != nil {
		t.Fatalf("rich tenant disturbed by starved neighbor: %v", err)
	}
	ck(cr.Wait(Materialize))
	if nv := ck1(cr.Nvals()); nv == 0 {
		t.Fatal("rich tenant result empty")
	}
}

// TestContextMemoryRollup pins the aggregate-usage contract the serving
// governor is built on: a budgeted child context mirrors its reservations
// into the nearest budgeted ancestor's MemoryUsed, transaction closes
// subtract them, the high-water mark is sticky, and Free detaches any
// residual so a finished request leaves the aggregate clean.
func TestContextMemoryRollup(t *testing.T) {
	setMode(t, NonBlocking)
	gov := ck1(NewContext(NonBlocking, nil, WithMemoryLimit(1<<30)))
	req := ck1(NewContext(NonBlocking, gov, WithMemoryLimit(1<<20)))
	// An unbudgeted context in between must not break the chain: leaf's
	// budget finds gov's as its rollup parent through mid.
	mid := ck1(NewContext(NonBlocking, gov))
	leaf := ck1(NewContext(NonBlocking, mid, WithMemoryLimit(1<<20)))

	// White-box: drive the request budgets directly through transactions,
	// exactly as a drained kernel would.
	tx := req.budget.Tx()
	if !tx.Reserve(4096) {
		t.Fatal("reserve failed")
	}
	ltx := leaf.budget.Tx()
	if !ltx.Reserve(1024) {
		t.Fatal("leaf reserve failed")
	}
	if got := req.MemoryUsed(); got != 4096 {
		t.Fatalf("req.MemoryUsed = %d, want 4096", got)
	}
	if got := gov.MemoryUsed(); got != 4096+1024 {
		t.Fatalf("gov.MemoryUsed = %d, want %d (aggregate of both children)", got, 4096+1024)
	}
	ltx.Close()
	tx.Close()
	if got := gov.MemoryUsed(); got != 0 {
		t.Fatalf("gov.MemoryUsed after close = %d, want 0", got)
	}
	if got := gov.MemoryPeak(); got != 4096+1024 {
		t.Fatalf("gov.MemoryPeak = %d, want %d (sticky high-water)", got, 4096+1024)
	}
	// Residual persistent reservations leave the aggregate on Free.
	tx2 := req.budget.Tx()
	if !tx2.ReservePersistent(512) {
		t.Fatal("persistent reserve failed")
	}
	tx2.Close()
	if got := gov.MemoryUsed(); got != 512 {
		t.Fatalf("gov.MemoryUsed with residual = %d, want 512", got)
	}
	ck(req.Free())
	if got := gov.MemoryUsed(); got != 0 {
		t.Fatalf("gov.MemoryUsed after child Free = %d, want 0", got)
	}
}

// TestContextRollupRealOperation runs a real kernel under a two-level budget
// chain: the governor aggregate must register activity while the request
// runs its operation (visible in the sticky peak) and return to zero once
// the request context is freed — no leak through any kernel path.
func TestContextRollupRealOperation(t *testing.T) {
	setMode(t, NonBlocking)
	gov := ck1(NewContext(NonBlocking, nil, WithMemoryLimit(1<<30)))
	req := ck1(NewContext(NonBlocking, gov, WithMemoryLimit(64<<20)))
	a := pathGraph(t, req, 128)
	c := ck1(NewMatrix[bool](128, 128, InContext(req)))
	ck(MxM(c, nil, nil, LOrLAnd(), a, a, nil))
	ck(c.Wait(Materialize))
	if gov.MemoryPeak() == 0 {
		t.Fatal("governor aggregate never saw the request's kernel activity")
	}
	ck(req.Free())
	if got := gov.MemoryUsed(); got != 0 {
		t.Fatalf("gov.MemoryUsed after request Free = %d, want 0", got)
	}
}

// TestCancelReleasesRollupReservation is the client-disconnect story at the
// context layer: a canceled mid-flight operation parks Canceled at range
// granularity, and freeing the request context returns the governor
// aggregate to zero — an abandoned request cannot strand memory in the
// admission signal.
func TestCancelReleasesRollupReservation(t *testing.T) {
	setMode(t, NonBlocking)
	faults.Enable(faults.Rule{Site: "sparse.kernel.range", Action: faults.Delay, Delay: 30 * time.Millisecond})
	defer faults.Disable()
	gov := ck1(NewContext(NonBlocking, nil, WithMemoryLimit(1<<30)))
	req := ck1(NewContext(NonBlocking, gov, WithMemoryLimit(64<<20), WithCancel(), WithThreads(2), withChunk(1)))
	a := pathGraph(t, req, 128)
	c := ck1(NewMatrix[bool](128, 128, InContext(req)))
	ck(MxM(c, nil, nil, LOrLAnd(), a, a, nil))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond) // land inside the delayed checkpoint
		if err := req.Cancel(); err != nil {
			t.Errorf("Cancel: %v", err)
		}
	}()
	err := c.Wait(Materialize)
	wg.Wait()
	if Code(err) != Canceled {
		t.Fatalf("mid-flight cancel: err = %v, want Canceled", err)
	}
	faults.Disable()
	ck(req.Free())
	if got := gov.MemoryUsed(); got != 0 {
		t.Fatalf("gov.MemoryUsed after canceled request Free = %d, want 0", got)
	}
}
