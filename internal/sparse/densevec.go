package sparse

import (
	"sync"
	"unsafe"
)

// The three resident forms of a vector and the views between them (Vec). A
// bitmap has one value slot per position: the pull product gathers through
// it, and the scatter kernels update an accumulator in it in O(|delta|). A
// full vector is its values alone, which the pull, the element-wise kernels,
// the reductions and the scalar assign read as they are. A kernel that reads
// a form it does not know takes a view. Matrices have
// no block form: a fully dense matrix runs the CSR row loop, which is faster
// on its own best case (EXPERIMENTS.md, "One multiply scaffold").

// viewMu serializes view materialization; the double-checked load keeps the
// cached-hit path lock-free.
var viewMu sync.Mutex

// viewBytes is what materializing v's bitmap view allocates: the value
// slots plus the presence flags, or nothing when v is dense or a bitmap and
// is its own view.
func (v *Vec[T]) viewBytes() int64 {
	if v.Bit != nil || v.dense() {
		return 0
	}
	var zero T
	return int64(v.N) * int64(unsafe.Sizeof(zero)+1)
}

// DenseViewEx returns v with one value slot per position: its Val, and its
// Bit where it is a bitmap. A dense vector and a bitmap are their own
// view — no conversion, no allocation, no charge. A sorted non-full vector's
// view is a bitmap materialized on first use and memoized; that miss is the
// operation's gather scratch and is charged as such — transiently, released
// when the operation's transaction closes — because the view dies with the
// snapshot, which in an iteration is the next step (a persistent charge
// would exhaust the budget with flat live memory). Returns ErrBudget when
// the charge does not fit, or when v has more positions than a bitmap holds.
func (v *Vec[T]) DenseViewEx(e Exec) (*Vec[T], error) {
	if v.Bit != nil || v.dense() {
		return v, nil
	}
	if v.N > maxBitmap {
		return nil, ErrBudget
	}
	return v.memoView(&e, v.viewBytes(), func() *Vec[T] {
		d := &Vec[T]{N: v.N, Val: make([]T, v.N), Bit: make([]bool, v.N), nb: uint32(v.NNZ())}
		for k, i := range v.Ind {
			d.Val[i], d.Bit[i] = v.Val[k], true
		}
		return d
	})
}

// sortedEx returns v in sorted coordinates: v itself, or the sorted view of
// a bitmap or a full vector. It is the door to those forms for every kernel
// that reads Ind and holds an Exec, and the kernel takes it itself: it is
// unexported so that no caller converts an operand for it. The view is
// memoized and charged like DenseViewEx's, and is pinned: a kernel that
// returns it as its result hands the next object storage that is never
// written again.
func (v *Vec[T]) sortedEx(e Exec) (*Vec[T], error) {
	if v.Bit == nil && !v.full() {
		return v, nil
	}
	var zero T
	bytes := int64(v.N) * 8 // a full vector's view adds the index array
	if v.Bit != nil {
		bytes = int64(v.nb) * int64(unsafe.Sizeof(zero)+8)
	}
	return v.memoView(&e, bytes, v.gather)
}

// Sorted is sortedEx for a kernel that holds no Exec and for a synchronous
// reader: the view is neither charged nor probed, like the output such a
// kernel allocates beside it.
func (v *Vec[T]) Sorted() *Vec[T] {
	if v.Bit == nil && !v.full() {
		return v
	}
	s, _ := v.memoView(nil, 0, v.gather) // unpaid, it cannot fail
	return s
}

// gather builds a bitmap's or a full vector's sorted view. A full vector's
// view shares its Val, so v is pinned too: neither is written again.
func (v *Vec[T]) gather() *Vec[T] {
	var s *Vec[T]
	if v.Bit != nil {
		s = GatherVec(v.Val, v.Bit)
	} else {
		s = &Vec[T]{N: v.N, Ind: fullPattern(v.N), Val: v.Val}
		v.Pin()
	}
	s.Pin()
	return s
}

// memoView returns v's memoized view, building it with build on a miss.
// Unless e is nil, the format conversion fault site is probed and the
// view's bytes charged to e under the gather site first.
func (v *Vec[T]) memoView(e *Exec, bytes int64, build func() *Vec[T]) (*Vec[T], error) {
	if d := v.view.Load(); d != nil {
		return d, nil
	}
	viewMu.Lock()
	defer viewMu.Unlock()
	if d := v.view.Load(); d != nil {
		return d, nil
	}
	if e != nil {
		if err := siteFormatConvert.Check(); err != nil {
			return nil, err
		}
		if err := e.charge(siteSpMVGather, bytes); err != nil {
			return nil, err
		}
	}
	d := build()
	formatConversions.Add(1)
	scratchBytes.Add(bytes)
	DebugCheckVec(d, "Vec.view")
	v.view.Store(d)
	return d, nil
}

// bitmapCut is the one cut between the two forms: a scatter kernel
// (AssignScalarMaskedV, EWiseAddV) granted a sorted vector's storage writes
// a result that may store n/bitmapCut of its n positions as a bitmap, which
// later updates scatter into in O(|delta|) where the sorted form rebuilds it
// all. 64 is where the measured bytes stop falling (EXPERIMENTS.md,
// "Accumulators updated in place"). A result that comes out full takes the
// full form (installSettled).
const bitmapCut = 64

// bitmapBase returns the bitmap a scatter kernel updates c into with at
// most delta new entries, or nil when c is sorted and the kernel keeps its
// sorted merge. It is the door to the step's grant of a bitmap, as reuseVal
// is to a value array: when e.Spare is c, c's own Val and Bit, written in
// place; a copy of them when c is a bitmap someone else can still read;
// fresh slots holding c's entries when c is a granted sorted vector whose
// result may reach bitmapCut. A dense c and one wider than maxBitmap are
// never made bitmaps.
func bitmapBase[T any](e Exec, c *Vec[T], delta int) *Vec[T] {
	granted := e.Spare == any(c)
	out := &Vec[T]{N: c.N, nb: uint32(c.NNZ())}
	switch {
	case c.Bit != nil && granted:
		out.Val, out.Bit = c.Val, c.Bit
	case c.Bit != nil:
		out.Val, out.Bit = make([]T, c.N), make([]bool, c.N)
		copy(out.Val, c.Val)
		copy(out.Bit, c.Bit)
	case granted && !c.dense() && c.N <= maxBitmap && (c.NNZ()+delta)*bitmapCut >= c.N:
		out.Val, out.Bit = make([]T, c.N), make([]bool, c.N)
		for k, i := range c.Ind {
			out.Val[i], out.Bit[i] = c.Val[k], true
		}
	default:
		return nil
	}
	return out
}

// installAt folds x into position i of the bitmap v a kernel is building:
// add(v(i), x) — add(x, v(i)) when x is add's first operand — where v
// stores i and add is non-nil, x otherwise.
func (v *Vec[T]) installAt(i int, x T, add func(T, T) T, xFirst bool) {
	switch {
	case !v.Bit[i]:
		v.Val[i], v.Bit[i] = x, true
		v.nb++
	case add == nil:
		v.Val[i] = x
	case xFirst:
		v.Val[i] = add(x, v.Val[i])
	default:
		v.Val[i] = add(v.Val[i], x)
	}
}

// installSettled finishes a bitmap a scatter kernel built: one that came
// out full drops its flags and takes the full form, its Val already the
// value array.
func installSettled[T any](v *Vec[T]) *Vec[T] {
	if int(v.nb) == v.N {
		v.Bit, v.nb = nil, 0
	}
	DebugCheckVec(v, "bitmap scatter")
	return v
}
