package grb

import (
	"runtime"
	"testing"
	"time"

	"github.com/grblas/grb/internal/sparse"
)

// pendingOps lists the op names of the deferred nodes, oldest first: the
// sequence as data (the groundwork ROADMAP items 3, 6 and 7 stand on).
func (s *sequence[T, S, U, K]) pendingOps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := make([]string, len(s.pending))
	for i := range s.pending {
		ops[i] = s.pending[i].op
	}
	return ops
}

// TestEmptyIndexListSelectsNothing: nil is grb.All, a non-nil empty list is
// no position at all. The hand-copied index idiom used to turn the second
// into the first, so an empty region assigned everywhere.
func TestEmptyIndexListSelectsNothing(t *testing.T) {
	for _, mode := range []Mode{Blocking, NonBlocking} {
		setMode(t, mode)
		none := []Index{}
		full, empty := ck1(NewScalar[int]()), ck1(NewScalar[int]())
		ck(full.SetElement(9))

		w := mustVector(t, 5, []Index{1, 3}, []int{10, 30})
		ck(VectorAssignScalar(w, nil, nil, 7, none, nil))
		ck(VectorAssignScalarObj(w, nil, nil, full, none, nil))
		ck(VectorAssignScalarObj(w, nil, nil, empty, none, nil))
		vectorEquals(t, w, []Index{1, 3}, []int{10, 30})

		c := mustMatrix(t, 4, 4, []Index{0, 2}, []Index{1, 3}, []int{1, 2})
		for _, region := range [][2][]Index{{none, nil}, {nil, none}, {none, none}} {
			ck(MatrixAssignScalar(c, nil, nil, 7, region[0], region[1], nil))
			ck(MatrixAssignScalarObj(c, nil, nil, full, region[0], region[1], nil))
			ck(MatrixAssignScalarObj(c, nil, nil, empty, region[0], region[1], nil))
		}
		matrixEquals(t, c, []Index{0, 2}, []Index{1, 3}, []int{1, 2})

		// nil still means every index.
		ck(VectorAssignScalar(w, nil, nil, 7, nil, nil))
		if nv := ck1(w.Nvals()); nv != 5 {
			t.Fatalf("mode %v: VectorAssignScalar over All stored %d entries, want 5", mode, nv)
		}
		ck(MatrixAssignScalar(c, nil, nil, 7, nil, []Index{0}, nil))
		if nv := ck1(c.Nvals()); nv != 6 {
			t.Fatalf("mode %v: MatrixAssignScalar over one column stored %d entries, want 6", mode, nv)
		}
		ck(MatrixAssignScalarObj(c, nil, nil, empty, nil, nil, nil))
		if nv := ck1(c.Nvals()); nv != 0 {
			t.Fatalf("mode %v: an empty scalar over All left %d entries, want 0", mode, nv)
		}
	}
}

// TestDrainedStepReleasesOperands: once a step has run, nothing in the
// sequence may keep the operand snapshots it captured alive. The pop by
// reslice left the last node in the backing array until the next append.
func TestDrainedStepReleasesOperands(t *testing.T) {
	setMode(t, NonBlocking)
	a := mustMatrix(t, 8, 8, []Index{0, 1, 2}, []Index{1, 2, 3}, []int{1, 2, 3})
	c := ck1(NewMatrix[int](8, 8))
	freed := make(chan struct{})
	runtime.SetFinalizer(ck1(a.snapshot()), func(*sparse.CSR[int]) { close(freed) })
	ck(EWiseAddMatrix(c, nil, nil, Plus[int], a, a, nil))
	ck(c.Wait(Materialize))
	ck(a.Free()) // the handle lets go of its storage; only a drained node could still hold it
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			if nv := ck1(c.Nvals()); nv != 3 {
				t.Fatalf("output after its input was collected: %d entries, want 3", nv)
			}
			return
		case <-deadline:
			t.Fatal("the input snapshot captured by a drained step is still reachable from the output")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestCancelStopsAtStepBoundary: a cancelled context stops a sequence at its
// next step whatever the step's kind — not only inside the multiplies, which
// were the only kernels handed a cancellation probe.
func TestCancelStopsAtStepBoundary(t *testing.T) {
	setMode(t, NonBlocking)
	ctx := ck1(NewContext(NonBlocking, nil, WithCancel()))
	vec := func(I []Index, X []int) *Vector[int] {
		v := ck1(NewVector[int](4, InContext(ctx)))
		ck(v.Build(I, X, nil))
		ck(v.Wait(Materialize))
		return v
	}
	u := vec([]Index{0, 1}, []int{1, 2})
	outs := []*Vector[int]{vec([]Index{3}, []int{30}), vec([]Index{3}, []int{30}), vec([]Index{3}, []int{30})}
	ck(EWiseAddVector(outs[0], nil, nil, Plus[int], u, u, nil))
	ck(VectorApply(outs[1], nil, nil, AInv[int], u, nil))
	ck(VectorAssignScalar(outs[2], nil, nil, 7, nil, nil))
	ck(ctx.Cancel())
	for i, w := range outs {
		wantCode(t, w.Wait(Materialize), Canceled)
		// The object keeps its previous storage and says why it stopped.
		w.mu.Lock()
		cur := w.cur
		w.mu.Unlock()
		if cur.NNZ() != 1 || cur.Ind[0] != 3 || cur.Val[0] != 30 {
			t.Fatalf("output %d after a cancelled step: %v %v, want its previous storage", i, cur.Ind, cur.Val)
		}
		if w.ErrorString() == "" {
			t.Fatalf("output %d: no error string for the cancelled step", i)
		}
	}
	// The object's own methods load data and are not cancelled.
	ck(u.SetElement(5, 2))
	ck(u.Wait(Materialize))
}

// TestSequenceNodesEnumerable issues every deferred public operation once
// and reads the sequence back as data: nonblocking mode leaves exactly one
// node carrying the operation's event name, blocking mode leaves none.
func TestSequenceNodesEnumerable(t *testing.T) {
	type env struct {
		a, b, c *Matrix[int]
		u, v, w *Vector[int]
		empty   *Scalar[int]
	}
	sr := PlusTimes[int]()
	mOut := func(e env, err error) []string { ck(err); return e.c.pendingOps() }
	vOut := func(e env, err error) []string { ck(err); return e.w.pendingOps() }
	ops := []struct {
		name  string
		issue func(env) []string
	}{
		{"MxM", func(e env) []string { return mOut(e, MxM(e.c, nil, nil, sr, e.a, e.b, nil)) }},
		{"MxV", func(e env) []string { return vOut(e, MxV(e.w, nil, nil, sr, e.a, e.u, nil)) }},
		{"VxM", func(e env) []string { return vOut(e, VxM(e.w, nil, nil, sr, e.u, e.a, nil)) }},
		{"EWiseAddMatrix", func(e env) []string { return mOut(e, EWiseAddMatrix(e.c, nil, nil, Plus[int], e.a, e.b, nil)) }},
		{"EWiseMultMatrix", func(e env) []string { return mOut(e, EWiseMultMatrix(e.c, nil, nil, Times[int], e.a, e.b, nil)) }},
		{"EWiseAddVector", func(e env) []string { return vOut(e, EWiseAddVector(e.w, nil, nil, Plus[int], e.u, e.v, nil)) }},
		{"EWiseMultVector", func(e env) []string { return vOut(e, EWiseMultVector(e.w, nil, nil, Times[int], e.u, e.v, nil)) }},
		{"MatrixApply", func(e env) []string { return mOut(e, MatrixApply(e.c, nil, nil, AInv[int], e.a, nil)) }},
		{"MatrixApplyBindFirst", func(e env) []string {
			return mOut(e, MatrixApplyBindFirst(e.c, nil, nil, Plus[int], 1, e.a, nil))
		}},
		{"MatrixApplyBindSecond", func(e env) []string {
			return mOut(e, MatrixApplyBindSecond(e.c, nil, nil, Plus[int], e.a, 1, nil))
		}},
		{"MatrixApplyIndexOp", func(e env) []string {
			return mOut(e, MatrixApplyIndexOp(e.c, nil, nil, RowIndex[int], e.a, 0, nil))
		}},
		{"MatrixSelect", func(e env) []string { return mOut(e, MatrixSelect(e.c, nil, nil, TriL[int], e.a, 0, nil)) }},
		{"VectorApply", func(e env) []string { return vOut(e, VectorApply(e.w, nil, nil, AInv[int], e.u, nil)) }},
		{"VectorApplyBindFirst", func(e env) []string {
			return vOut(e, VectorApplyBindFirst(e.w, nil, nil, Plus[int], 1, e.u, nil))
		}},
		{"VectorApplyBindSecond", func(e env) []string {
			return vOut(e, VectorApplyBindSecond(e.w, nil, nil, Plus[int], e.u, 1, nil))
		}},
		{"VectorApplyIndexOp", func(e env) []string {
			return vOut(e, VectorApplyIndexOp(e.w, nil, nil, RowIndex[int], e.u, 0, nil))
		}},
		{"VectorSelect", func(e env) []string { return vOut(e, VectorSelect(e.w, nil, nil, RowLE[int], e.u, 1, nil)) }},
		{"MatrixExtract", func(e env) []string { return mOut(e, MatrixExtract(e.c, nil, nil, e.a, All, All, nil)) }},
		{"VectorExtract", func(e env) []string { return vOut(e, VectorExtract(e.w, nil, nil, e.u, All, nil)) }},
		{"ColExtract", func(e env) []string { return vOut(e, ColExtract(e.w, nil, nil, e.a, All, 1, nil)) }},
		{"MatrixAssign", func(e env) []string { return mOut(e, MatrixAssign(e.c, nil, nil, e.a, All, All, nil)) }},
		{"MatrixAssignScalar", func(e env) []string {
			return mOut(e, MatrixAssignScalar(e.c, nil, nil, 7, []Index{0}, All, nil))
		}},
		{"MatrixAssignScalarObj", func(e env) []string {
			return mOut(e, MatrixAssignScalarObj(e.c, nil, nil, e.empty, All, All, nil))
		}},
		{"VectorAssign", func(e env) []string { return vOut(e, VectorAssign(e.w, nil, nil, e.u, All, nil)) }},
		{"VectorAssignScalar", func(e env) []string { return vOut(e, VectorAssignScalar(e.w, nil, nil, 7, All, nil)) }},
		{"VectorAssignScalarObj", func(e env) []string {
			return vOut(e, VectorAssignScalarObj(e.w, nil, nil, e.empty, All, nil))
		}},
		{"RowAssign", func(e env) []string { return mOut(e, RowAssign(e.c, nil, nil, e.u, 1, All, nil)) }},
		{"ColAssign", func(e env) []string { return mOut(e, ColAssign(e.c, nil, nil, e.u, All, 1, nil)) }},
		{"Transpose", func(e env) []string { return mOut(e, Transpose(e.c, nil, nil, e.a, nil)) }},
		{"Kronecker", func(e env) []string {
			k := ck1(NewMatrix[int](9, 9))
			ck(Kronecker(k, nil, nil, Times[int], e.a, e.b, nil))
			return k.pendingOps()
		}},
		{"MatrixReduceToVector", func(e env) []string {
			return vOut(e, MatrixReduceToVector(e.w, nil, nil, PlusMonoid[int](), e.a, nil))
		}},
		{"Matrix.Resize", func(e env) []string { return mOut(e, e.c.Resize(5, 5)) }},
		{"Matrix.Build", func(e env) []string { return mOut(e, e.c.Build([]Index{0}, []Index{0}, []int{1}, nil)) }},
		{"Vector.Resize", func(e env) []string { return vOut(e, e.w.Resize(5)) }},
		{"Vector.Build", func(e env) []string { return vOut(e, e.w.Build([]Index{0}, []int{1}, nil)) }},
	}
	for _, mode := range []Mode{NonBlocking, Blocking} {
		setMode(t, mode)
		for _, op := range ops {
			e := env{
				a:     mustMatrix(t, 3, 3, []Index{0, 1, 2}, []Index{1, 2, 0}, []int{1, 2, 3}),
				b:     mustMatrix(t, 3, 3, []Index{0, 1}, []Index{1, 1}, []int{4, 5}),
				c:     ck1(NewMatrix[int](3, 3)),
				u:     mustVector(t, 3, []Index{0, 2}, []int{1, 2}),
				v:     mustVector(t, 3, []Index{1, 2}, []int{3, 4}),
				w:     ck1(NewVector[int](3)),
				empty: ck1(NewScalar[int]()),
			}
			got := op.issue(e)
			switch {
			case mode == Blocking && len(got) != 0:
				t.Errorf("%s: blocking mode left %v pending", op.name, got)
			case mode == NonBlocking && (len(got) != 1 || got[0] != op.name):
				t.Errorf("%s: pending nodes = %v, want exactly [%s]", op.name, got, op.name)
			}
		}
	}
}

// TestSequenceDrainsInCallOrder: three queued nodes run oldest first, each on
// the storage the one before installed, under one sequence span with steps=3,
// and the drained list is empty but keeps its backing array.
func TestSequenceDrainsInCallOrder(t *testing.T) {
	setMode(t, NonBlocking)
	EnableMetrics(true)
	defer func() {
		EnableMetrics(false)
		ResetMetrics()
	}()
	w := ck1(NewVector[int](4))
	ck(w.Wait(Materialize))
	ResetMetrics()
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		ck(w.push(NonBlocking, opNode[int, *sparse.Vec[int]]{op: name, ev: evKernel(name), yields: yieldsC,
			kernel: func(sparse.Exec) (*sparse.Vec[int], error) {
				order = append(order, name)
				return &sparse.Vec[int]{N: 4, Ind: []int{len(order)}, Val: []int{len(order)}}, nil
			}}))
	}
	if got := w.pendingOps(); len(got) != 3 || got[0] != "first" || got[2] != "third" {
		t.Fatalf("pending = %v, want [first second third]", got)
	}
	ck(w.Wait(Materialize))
	if len(order) != 3 || order[0] != "first" || order[1] != "second" || order[2] != "third" {
		t.Fatalf("drain order = %v, want call order", order)
	}
	vectorEquals(t, w, []Index{3}, []int{3})
	m := Metrics()
	if seq := m["sequence(vector)"]; seq.Count != 1 || seq.Steps != 3 {
		t.Fatalf("sequence spans = %+v, want one span of 3 steps", seq)
	}
	for _, name := range order {
		if m[name].Count != 1 {
			t.Fatalf("step %q emitted %d events, want 1", name, m[name].Count)
		}
	}
	w.mu.Lock()
	n, c := len(w.pending), cap(w.pending)
	w.mu.Unlock()
	if n != 0 || c < 3 {
		t.Fatalf("after the drain: len %d cap %d, want an empty list over the reused array", n, c)
	}
}

// TestOpFrameAllocs pins what one deferred operation plus its drain costs on
// 64-entry operands. Before the node list these were 5, 6, 11 and 5: the
// result plus a compute closure, a wrapper closure and a fresh one-element
// pending array per call.
func TestOpFrameAllocs(t *testing.T) {
	setMode(t, NonBlocking)
	const n = 64
	idx, vals := make([]Index, n), make([]int, n)
	for i := range idx {
		idx[i], vals[i] = i, i+1
	}
	u, v, w := mustVector(t, n, idx, vals), mustVector(t, n, idx, vals), ck1(NewVector[int](n))
	a := mustMatrix(t, n, n, idx, idx, vals)
	sr := PlusTimes[int]()
	for _, c := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"EWiseAddVector", 4, func() error { return EWiseAddVector(w, nil, nil, Plus[int], u, v, nil) }},
		{"VectorApply", 4, func() error { return VectorApply(w, nil, nil, Identity[int], u, nil) }},
		{"VxM", 8, func() error { return VxM(w, nil, nil, sr, u, a, nil) }},
		{"VectorAssignScalar", 3, func() error { return VectorAssignScalar(w, nil, nil, 7, nil, nil) }},
		// A typed reduction emits an op event; with no sink that costs nothing
		// (ReduceAll's own five allocations are the matrix one's).
		{"VectorReduce", 0, func() error { _, err := VectorReduce(PlusMonoid[int](), u); return err }},
		{"MatrixReduce", 5, func() error { _, err := MatrixReduce(PlusMonoid[int](), a); return err }},
	} {
		step := func() {
			ck(c.run())
			ck(w.Wait(Materialize))
		}
		step() // settle the inputs and size the pending list
		if got := testing.AllocsPerRun(100, step); got > c.max {
			t.Errorf("%s + Wait: %v allocs, want <= %v", c.name, got, c.max)
		}
	}
}
