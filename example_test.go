package grb_test

import (
	"fmt"

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

// ExampleNewContext bounds an operation's parallelism with a nested
// execution context (§IV, Fig. 2 of the paper).
func ExampleNewContext() {
	ensureExample()
	ctx := ck1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(2)))
	a := ck1(grb.NewMatrix[int](2, 2, grb.InContext(ctx)))
	ck(a.Build([]grb.Index{0, 1}, []grb.Index{1, 0}, []int{1, 1}, nil))
	c := ck1(grb.NewMatrix[int](2, 2, grb.InContext(ctx)))
	ck(grb.MxM(c, nil, nil, grb.PlusTimes[int](), a, a, nil))
	n := ck1(c.Nvals())
	fmt.Println(n, ctx.Threads())
	// Output: 2 2
}
