package grb_test

import (
	"fmt"
	"sync"
	"sync/atomic"

	grb "github.com/grblas/grb"
)

// ensureExample initializes the library for the godoc examples (each example
// runs in the shared test binary, so Init may already have happened).
func ensureExample() {
	if _, err := grb.GlobalContext(); err != nil {
		ck(grb.Init(grb.NonBlocking))
	}
}

// ExampleMxM multiplies two small matrices over the conventional semiring.
func ExampleMxM() {
	ensureExample()
	a := ck1(grb.NewMatrix[int](2, 2))
	ck(a.Build([]grb.Index{0, 1}, []grb.Index{1, 0}, []int{2, 3}, nil))
	c := ck1(grb.NewMatrix[int](2, 2))
	ck(grb.MxM(c, nil, nil, grb.PlusTimes[int](), a, a, nil))
	v, _ := ck2(c.ExtractElement(0, 0))
	fmt.Println(v)
	// Output: 6
}

// ExampleMatrixSelect keeps the strict upper triangle with the predefined
// TriU operator from Table IV of the GraphBLAS 2.0 paper.
func ExampleMatrixSelect() {
	ensureExample()
	a := ck1(grb.NewMatrix[int](3, 3))
	ck(a.Build([]grb.Index{0, 1, 2}, []grb.Index{2, 0, 2}, []int{1, 2, 3}, nil))
	c := ck1(grb.NewMatrix[int](3, 3))
	ck(grb.MatrixSelect(c, nil, nil, grb.TriU[int], a, 1, nil))
	n := ck1(c.Nvals())
	fmt.Println(n)
	// Output: 1
}

// ExampleMatrixApplyIndexOp replaces stored values by their column index,
// the §VIII-B index variant of apply.
func ExampleMatrixApplyIndexOp() {
	ensureExample()
	a := ck1(grb.NewMatrix[float64](2, 3))
	ck(a.Build([]grb.Index{0, 1}, []grb.Index{2, 1}, []float64{9.5, 4.5}, nil))
	c := ck1(grb.NewMatrix[int](2, 3))
	ck(grb.MatrixApplyIndexOp(c, nil, nil, grb.ColIndex[float64], a, 1, nil))
	v1, _ := ck2(c.ExtractElement(0, 2))
	v2, _ := ck2(c.ExtractElement(1, 1))
	fmt.Println(v1, v2)
	// Output: 3 2
}

// ExampleMatrixReduceToScalar shows the GrB_Scalar-output reduce: an empty
// matrix reduces to an empty scalar rather than the monoid identity.
func ExampleMatrixReduceToScalar() {
	ensureExample()
	empty := ck1(grb.NewMatrix[int](4, 4))
	s := ck1(grb.NewScalar[int]())
	ck(grb.MatrixReduceToScalar(s, nil, grb.PlusMonoid[int](), empty, nil))
	n := ck1(s.Nvals())
	identity := ck1(grb.MatrixReduce(grb.PlusMonoid[int](), empty))
	fmt.Println(n, identity)
	// Output: 0 0
}

// Example_tableI walks the six GrB_Scalar manipulation methods of the
// paper's Table I: new, nvals, setElement, extractElement, dup, clear.
func Example_tableI() {
	ensureExample()
	s := ck1(grb.NewScalar[float64]())
	fmt.Printf("new:        nvals=%d\n", ck1(s.Nvals()))
	ck(s.SetElement(3.25))
	v, ok := ck2(s.ExtractElement())
	fmt.Printf("setElement: nvals=%d value=%v present=%v\n", ck1(s.Nvals()), v, ok)
	d := ck1(s.Dup())
	ck(s.Clear())
	_, ok = ck2(s.ExtractElement())
	fmt.Printf("clear:      nvals=%d present=%v\n", ck1(s.Nvals()), ok)
	v, ok = ck2(d.ExtractElement())
	fmt.Printf("dup:        value=%v present=%v\n", v, ok)
	// Output:
	// new:        nvals=0
	// setElement: nvals=1 value=3.25 present=true
	// clear:      nvals=0 present=false
	// dup:        value=3.25 present=true
}

// Example_tableII runs the GrB_Scalar variants of the core methods from the
// paper's Table II: an empty reduction yields an empty scalar where the 1.X
// typed output yields the identity, a BinaryOp reduces without a monoid, a
// missed extractElement empties the scalar, and an empty scalar argument is
// a §V execution error.
func Example_tableII() {
	ensureExample()
	empty := ck1(grb.NewMatrix[int](4, 4))
	s := ck1(grb.NewScalar[int]())
	ck(grb.MatrixReduceToScalar(s, nil, grb.PlusMonoid[int](), empty, nil))
	fmt.Printf("reduce(empty):        Scalar nvals=%d, 1.X typed output=%d\n",
		ck1(s.Nvals()), ck1(grb.MatrixReduce(grb.PlusMonoid[int](), empty)))

	m := ck1(grb.NewMatrix[int](2, 2))
	ck(m.Build([]grb.Index{0, 1}, []grb.Index{1, 0}, []int{7, 8}, nil))
	ck(grb.MatrixReduceToScalarBinaryOp(s, nil, grb.Plus[int], m, nil))
	v, _ := ck2(s.ExtractElement())
	fmt.Printf("reduce(BinaryOp +):   %d\n", v)

	ck(m.ExtractElementScalar(s, 0, 0))
	fmt.Printf("extractElement(miss): Scalar nvals=%d\n", ck1(s.Nvals()))

	sv := ck1(grb.ScalarOf(42))
	ck(m.SetElementScalar(sv, 0, 0))
	v, _ = ck2(m.ExtractElement(0, 0))
	fmt.Printf("setElement(Scalar):   m(0,0)=%d\n", v)
	ck(grb.MatrixAssignScalarObj(m, nil, nil, sv, grb.All, grb.All, nil))
	fmt.Printf("assign(Scalar, all):  nvals=%d\n", ck1(m.Nvals()))

	w := ck1(grb.NewVector[int](5))
	ck(w.Build([]grb.Index{0, 2, 4}, []int{1, 5, 9}, nil))
	out := ck1(grb.NewVector[int](5))
	ck(grb.VectorSelectScalar(out, nil, nil, grb.ValueGT[int], w, ck1(grb.ScalarOf(4)), nil))
	oi, ox := ck2(out.ExtractTuples())
	fmt.Printf("select(VALUEGT, 4):   kept %v = %v\n", oi, ox)
	err := grb.VectorSelectScalar(out, nil, nil, grb.ValueGT[int], w, ck1(grb.NewScalar[int]()), nil)
	fmt.Printf("select(empty Scalar): %v\n", grb.Code(err))
	// Output:
	// reduce(empty):        Scalar nvals=0, 1.X typed output=0
	// reduce(BinaryOp +):   15
	// extractElement(miss): Scalar nvals=0
	// setElement(Scalar):   m(0,0)=42
	// assign(Scalar, all):  nvals=4
	// select(VALUEGT, 4):   kept [2 4] = [5 9]
	// select(empty Scalar): GrB_EMPTY_OBJECT
}

// ExampleVector_Wait demonstrates the nonblocking sequence model: the
// product is deferred until the materializing wait.
func ExampleVector_Wait() {
	ensureExample()
	a := ck1(grb.NewMatrix[int](2, 2))
	ck(a.Build([]grb.Index{0, 1}, []grb.Index{0, 1}, []int{5, 7}, nil))
	u := ck1(grb.NewVector[int](2))
	ck(u.Build([]grb.Index{0, 1}, []int{1, 1}, nil))
	w := ck1(grb.NewVector[int](2))
	ck(grb.MxV(w, nil, nil, grb.PlusTimes[int](), a, u, nil))
	if err := w.Wait(grb.Materialize); err == nil {
		x, _ := ck2(w.ExtractElement(1))
		fmt.Println(x)
	}
	// Output: 7
}

// ExampleNewContext is Fig. 2 of the paper (§IV): a nested context whose
// thread budget is clamped by its parent's, constructors that take a
// context, the rule that an operation's objects share a context (nested
// contexts count as shared, sibling ones do not), and SwitchContext moving
// an object over so that the operation is accepted.
func ExampleNewContext() {
	ensureExample()
	outer := ck1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(4)))
	inner := ck1(grb.NewContext(grb.NonBlocking, outer, grb.WithThreads(16)))
	other := ck1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(1)))
	fmt.Println("threads:", outer.Threads(), inner.Threads(), other.Threads())

	a := ck1(grb.NewMatrix[int](2, 2, grb.InContext(inner)))
	ck(a.Build([]grb.Index{0, 1}, []grb.Index{1, 0}, []int{1, 1}, nil))
	b := ck1(a.Dup())
	ck(b.SwitchContext(other))
	c := ck1(grb.NewMatrix[int](2, 2, grb.InContext(outer)))
	err := grb.MxM(c, nil, nil, grb.PlusTimes[int](), a, b, nil)
	fmt.Println("sibling contexts:", grb.Code(err))

	ck(b.SwitchContext(outer))
	ck(grb.MxM(c, nil, nil, grb.PlusTimes[int](), a, b, nil))
	fmt.Println("after SwitchContext:", ck1(c.Nvals()))
	// Output:
	// threads: 4 4 1
	// sibling contexts: GrB_INVALID_VALUE
	// after SwitchContext: 2
}

// Example_figure1 is Fig. 1 of the paper (§III): thread 0 computes the
// shared matrix Esh = A³, completes it with Wait(Complete) and release-stores
// a flag; thread 1 acquire-loads the flag until it is set and only then
// reads Esh. A is the cyclic shift, so Hres = A·Esh = A⁴ = I.
func Example_figure1() {
	ensureExample()
	ctx := ck1(grb.NewContext(grb.NonBlocking, nil))
	newMatrix := func() *grb.Matrix[int] { return ck1(grb.NewMatrix[int](4, 4, grb.InContext(ctx))) }
	a := newMatrix()
	ck(a.Build([]grb.Index{0, 1, 2, 3}, []grb.Index{1, 2, 3, 0}, []int{1, 1, 1, 1}, nil))
	esh, hres := newMatrix(), newMatrix()
	var flag atomic.Int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // thread 0
		defer wg.Done()
		a2 := newMatrix()
		ck(grb.MxM(a2, nil, nil, grb.PlusTimes[int](), a, a, nil))
		ck(grb.MxM(esh, nil, nil, grb.PlusTimes[int](), a, a2, nil))
		ck(esh.Wait(grb.Complete))
		flag.Store(1) // release
	}()
	go func() { // thread 1
		defer wg.Done()
		for flag.Load() == 0 { // acquire
		}
		ck(grb.MxM(hres, nil, nil, grb.PlusTimes[int](), a, esh, nil))
		ck(hres.Wait(grb.Complete))
	}()
	wg.Wait()
	fmt.Println(hres)
	// Output:
	// Matrix 4x4, 4 entries
	//   [ 1 . . . ]
	//   [ . 1 . . ]
	//   [ . . 1 . ]
	//   [ . . . 1 ]
}

// Example_figure3 is Fig. 3 of the paper (§VIII): a weighted 7-vertex
// digraph, select with the user-defined my_triu_gt at s = 0 (which keeps
// what the predefined TriU keeps at s = 1, every weight being positive),
// and apply with the predefined ColIndex at s = 1, which replaces every
// stored value by its column index plus 1.
func Example_figure3() {
	ensureExample()
	const n = 7
	a := ck1(grb.NewMatrix[int32](n, n))
	ck(a.Build(
		[]grb.Index{0, 0, 1, 1, 2, 3, 3, 4, 5, 6, 6},
		[]grb.Index{1, 3, 4, 6, 5, 0, 2, 5, 2, 2, 3},
		[]int32{2, 3, 8, 1, 1, 3, 3, 1, 2, 5, 7}, nil))
	fmt.Println(a)

	// The paper's user-defined my_triu_gt: keep the entries strictly above
	// the diagonal whose value exceeds s.
	myTriuGT := func(v int32, row, col grb.Index, s int32) bool { return col > row && v > s }
	op := ck1(grb.NewIndexUnaryOp(myTriuGT))
	c := ck1(grb.NewMatrix[int32](n, n))
	ck(grb.MatrixSelect(c, nil, nil, op, a, int32(0), nil))
	fmt.Println(c)
	u := ck1(grb.NewMatrix[int32](n, n))
	ck(grb.MatrixSelect(u, nil, nil, grb.TriU[int32], a, 1, nil))
	fmt.Println("same as TriU(1):", u.String() == c.String())

	d := ck1(grb.NewMatrix[int](n, n))
	ck(grb.MatrixApplyIndexOp(d, nil, nil, grb.ColIndex[int32], a, 1, nil))
	fmt.Println(d)
	// Output:
	// Matrix 7x7, 11 entries
	//   [ . 2 . 3 . . . ]
	//   [ . . . . 8 . 1 ]
	//   [ . . . . . 1 . ]
	//   [ 3 . 3 . . . . ]
	//   [ . . . . . 1 . ]
	//   [ . . 2 . . . . ]
	//   [ . . 5 7 . . . ]
	// Matrix 7x7, 6 entries
	//   [ . 2 . 3 . . . ]
	//   [ . . . . 8 . 1 ]
	//   [ . . . . . 1 . ]
	//   [ . . . . . . . ]
	//   [ . . . . . 1 . ]
	//   [ . . . . . . . ]
	//   [ . . . . . . . ]
	// same as TriU(1): true
	// Matrix 7x7, 11 entries
	//   [ . 2 . 4 . . . ]
	//   [ . . . . 5 . 7 ]
	//   [ . . . . . 6 . ]
	//   [ 1 . 3 . . . . ]
	//   [ . . . . . 6 . ]
	//   [ . . 3 . . . . ]
	//   [ . . 3 4 . . . ]
}

// ExampleMatrix_MatrixExportInto is the §VII export flow of Table III: ask
// for the array sizes in the hinted format, allocate them, export into
// them, and import the arrays into a new matrix.
func ExampleMatrix_MatrixExportInto() {
	ensureExample()
	a := ck1(grb.NewMatrix[float64](3, 3))
	ck(a.Build([]grb.Index{0, 0, 2}, []grb.Index{1, 2, 0}, []float64{1.5, 2, -3}, nil))
	format := ck1(a.MatrixExportHint())
	np, ni, nv := ck3(a.MatrixExportSize(format))
	indptr, indices, values := make([]grb.Index, np), make([]grb.Index, ni), make([]float64, nv)
	ck(a.MatrixExportInto(format, indptr, indices, values))
	fmt.Println(format, indptr, indices, values)
	back := ck1(grb.MatrixImport(3, 3, indptr, indices, values, format))
	fmt.Println(back)
	// Output:
	// GrB_CSR_MATRIX [0 2 2 3] [1 2 0] [1.5 2 -3]
	// Matrix 3x3, 3 entries
	//   [ . 1.5 2 ]
	//   [ . . . ]
	//   [ -3 . . ]
}
