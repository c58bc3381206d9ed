package grb

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestFig1ProtocolPendingReaderOutlivesReuse is Figure 1 with a write after
// the shared read: thread 0 completes w and releases it; thread 1 acquires
// w and leaves a pending operation that reads it, then releases; thread 0
// acquires and overwrites w through a form that writes into w's superseded
// value array when nothing else can read it; only then does thread 1
// materialize, and it must see w as it was at its call.
func TestFig1ProtocolPendingReaderOutlivesReuse(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 64
	w := ck1(NewVector[float64](n))
	var flag atomic.Int32
	await := func(v int32) {
		for flag.Load() != v { // acquire
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // thread 0
		defer wg.Done()
		ck(VectorAssignScalar(w, nil, nil, 1, All, nil))
		ck(w.Wait(Complete))
		flag.Store(1) // release w
		await(2)
		ck(VectorAssignScalar(w, nil, nil, 2, All, nil))
		ck(w.Wait(Complete))
		flag.Store(3)
	}()
	var got []float64
	go func() { // thread 1
		defer wg.Done()
		await(1)
		r := ck1(NewVector[float64](n))
		ck(VectorApply(r, nil, nil, Identity[float64], w, nil))
		flag.Store(2)
		await(3)
		_, got = ck2(r.ExtractTuples())
	}()
	wg.Wait()
	if len(got) != n {
		t.Fatalf("the pending reader has %d entries, want %d", len(got), n)
	}
	for i, x := range got {
		if x != 1 {
			t.Fatalf("reader(%d) = %v: it saw thread 0's later write, want w at its call", i, x)
		}
	}
	if _, x := ck2(w.ExtractTuples()); x[0] != 2 {
		t.Fatalf("w(0) = %v after thread 0's overwrite, want 2", x[0])
	}
}

// TestFig1ProtocolPendingReaderKeepsLevelsBitmap is the same handoff over
// BFS's levels once it is a bitmap: thread 1 leaves a pending reader of
// levels' bitmap snapshot, thread 0 then assigns the next level, which would
// otherwise write that bitmap in place, and thread 1 must see levels as it
// was at its call. make checktags runs it under -race with grbcheck.
func TestFig1ProtocolPendingReaderKeepsLevelsBitmap(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 64
	levels := ck1(NewVector[int](n))
	frontier := func(lo, hi int) *Vector[bool] {
		f := ck1(NewVector[bool](n))
		for i := lo; i < hi; i++ {
			ck(f.SetElement(true, i))
		}
		return f
	}
	first, next := frontier(0, n/2), frontier(n/2, n/2+4)
	var flag atomic.Int32
	await := func(v int32) {
		for flag.Load() != v { // acquire
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // thread 0
		defer wg.Done()
		ck(levels.SetElement(0, 0))
		ck(VectorAssignScalar(levels, first, nil, 1, All, DescS))
		ck(levels.Wait(Complete))
		flag.Store(1) // release levels, a bitmap now
		await(2)
		ck(VectorAssignScalar(levels, next, nil, 2, All, DescS))
		ck(levels.Wait(Complete))
		flag.Store(3)
	}()
	var got map[Index]int
	go func() { // thread 1
		defer wg.Done()
		await(1)
		r := ck1(NewVector[int](n))
		ck(VectorApply(r, nil, nil, Identity[int], levels, nil))
		flag.Store(2)
		await(3)
		got = entries(r)
	}()
	wg.Wait()
	if levels.cur.Bit == nil {
		t.Fatal("levels is not a bitmap: the test does not reach the in-place assign")
	}
	if len(got) != n/2 || got[0] != 1 || got[n/2] != 0 {
		t.Fatalf("the pending reader saw %v, want levels at its call: positions 0..%d at level 1", got, n/2-1)
	}
	if lv := entries(levels); len(lv) != n/2+4 || lv[n/2] != 2 {
		t.Fatalf("levels = %v after thread 0's next level", lv)
	}
}

// TestFig1ProtocolPendingReaderKeepsFullRanks is the same handoff over a
// full vector, PageRank's r: values alone, which a scalar assign to every
// position writes in place when nothing else reads them. Thread 1 leaves a
// pending reader of r, thread 0 then overwrites r, and thread 1 must see r
// as it was at its call; with the reader gone, the next overwrite is in
// place. make checktags runs it under -race with grbcheck.
func TestFig1ProtocolPendingReaderKeepsFullRanks(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 64
	r := ck1(NewVector[float64](n))
	var flag atomic.Int32
	await := func(v int32) {
		for flag.Load() != v { // acquire
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // thread 0
		defer wg.Done()
		ck(VectorAssignScalar(r, nil, nil, 1, All, nil))
		ck(r.Wait(Complete))
		flag.Store(1) // release r, full now
		await(2)
		ck(VectorAssignScalar(r, nil, nil, 2, All, nil))
		ck(r.Wait(Complete))
		flag.Store(3)
	}()
	var got map[Index]float64
	go func() { // thread 1
		defer wg.Done()
		await(1)
		x := ck1(NewVector[float64](n))
		ck(VectorApply(x, nil, nil, Identity[float64], r, nil))
		flag.Store(2)
		await(3)
		got = entries(x)
	}()
	wg.Wait()
	if r.cur.Ind != nil || r.cur.Bit != nil || len(r.cur.Val) != n {
		t.Fatal("r is not in the full form: the test does not reach the full vector's in-place assign")
	}
	if len(got) != n || got[0] != 1 || got[n-1] != 1 {
		t.Fatalf("the pending reader saw %v, want r at its call: every position 1", got)
	}
	if rv := entries(r); len(rv) != n || rv[0] != 2 {
		t.Fatalf("r = %v after thread 0's overwrite", rv)
	}
	before := &r.cur.Val[0]
	ck(VectorAssignScalar(r, nil, nil, 3, All, nil))
	ck(r.Wait(Complete))
	if &r.cur.Val[0] != before {
		t.Fatal("with no reader left, the overwrite of a full r did not write its values in place")
	}
}

// TestThreadSafetyIndependentObjects: §III requires a conformant library to
// be thread safe for independent method calls. Run many goroutines, each
// with its own objects, under -race.
func TestThreadSafetyIndependentObjects(t *testing.T) {
	setMode(t, NonBlocking)
	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(seed int) {
			defer wg.Done()
			n := 16 + seed
			a, err := NewMatrix[int](n, n)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < n; i++ {
				if err := a.SetElement(i+1, i, (i*7+seed)%n); err != nil {
					errs <- err
					return
				}
			}
			c := ck1(NewMatrix[int](n, n))
			if err := MxM(c, nil, nil, PlusTimes[int](), a, a, nil); err != nil {
				errs <- err
				return
			}
			if err := c.Wait(Materialize); err != nil {
				errs <- err
				return
			}
			s := ck1(NewScalar[int]())
			if err := MatrixReduceToScalar(s, nil, PlusMonoid[int](), c, nil); err != nil {
				errs <- err
				return
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestThreadSafetySharedInput: many goroutines read one completed matrix
// concurrently (reads of a complete object are safe without extra sync).
func TestThreadSafetySharedInput(t *testing.T) {
	setMode(t, NonBlocking)
	a := mustMatrix(t, 10, 10,
		[]Index{0, 3, 7}, []Index{1, 4, 8}, []int{1, 2, 3})
	if err := a.Wait(Complete); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers = 8
	wg.Add(workers)
	sums := make([]int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := ck1(NewMatrix[int](10, 10))
			if err := MatrixApply(c, nil, nil, func(x int) int { return x * 2 }, a, nil); err != nil {
				return
			}
			s := ck1(MatrixReduce(PlusMonoid[int](), c))
			sums[w] = s
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if sums[w] != 12 {
			t.Fatalf("worker %d sum = %d, want 12", w, sums[w])
		}
	}
}

// TestNonblockingDeferredThenRead: a deferred product must not be visible
// as stale state — any read forces completion (§III's "reads force the
// sequence").
func TestNonblockingDeferredThenRead(t *testing.T) {
	setMode(t, NonBlocking)
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 1}, []int{2, 3})
	c := ck1(NewMatrix[int](2, 2))
	if err := MxM(c, nil, nil, PlusTimes[int](), a, a, nil); err != nil {
		t.Fatal(err)
	}
	// No explicit Wait: Nvals must force the sequence.
	nv, err := c.Nvals()
	if err != nil || nv != 2 {
		t.Fatalf("nvals = %d, %v", nv, err)
	}
	if v, _ := ck2(c.ExtractElement(1, 1)); v != 9 {
		t.Fatalf("c(1,1) = %d", v)
	}
}

// TestSequenceSnapshotSemantics: a deferred operation must observe its
// inputs as they were in program order, even if they change before the
// sequence executes.
func TestSequenceSnapshotSemantics(t *testing.T) {
	setMode(t, NonBlocking)
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 1}, []int{1, 1}) // I
	c := ck1(NewMatrix[int](2, 2))
	if err := MxM(c, nil, nil, PlusTimes[int](), a, a, nil); err != nil {
		t.Fatal(err)
	}
	// Mutate A after the (deferred) product.
	if err := a.SetElement(100, 0, 1); err != nil {
		t.Fatal(err)
	}
	// The deferred product must still be I·I = I (program order).
	matrixEquals(t, c, []Index{0, 1}, []Index{0, 1}, []int{1, 1})
}
