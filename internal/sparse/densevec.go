package sparse

import (
	"slices"
	"sync"
	"unsafe"

	"github.com/grblas/grb/internal/obsv"
)

// The three resident forms of a vector and the two doors their readers take
// (Vec). A reader takes a vector through the sorted door (sortedEx, Sorted:
// Ind and Val, a bitmap or a full vector converted into a memoized view) or
// through the position-indexed one (indexed, has: Val holds position i at
// i, and a full vector is a bitmap whose every flag is set), or walks it in
// any form (Each). A bitmap has one value slot per position: the pull
// product gathers through it, and the scatter kernels update an accumulator
// in it in O(|delta|). A full vector is its values alone. Matrices have no
// block form: a fully dense matrix runs the CSR row loop, which is faster on
// its own best case (EXPERIMENTS.md, "One multiply scaffold").

// viewMu serializes view materialization; the double-checked load keeps the
// cached-hit path lock-free.
var viewMu sync.Mutex

// viewBytes is what materializing v's bitmap view allocates: the value
// slots plus the presence flags, or nothing when v is indexed and is its
// own view.
func (v *Vec[T]) viewBytes() int64 {
	if v.indexed() {
		return 0
	}
	var zero T
	return int64(v.N) * int64(unsafe.Sizeof(zero)+1)
}

// DenseViewEx returns v with one value slot per position: its Val, and its
// Bit where it is a bitmap. An indexed vector is its own view — no
// conversion, no allocation, no charge. A sorted non-full vector's view is
// a bitmap materialized on first use and memoized; that miss is the
// operation's gather scratch and is charged as such — transiently, released
// when the operation's transaction closes — because the view dies with the
// snapshot, which in an iteration is the next step (a persistent charge
// would exhaust the budget with flat live memory). Returns ErrBudget when
// the charge does not fit, or when v has more positions than a bitmap holds.
func (v *Vec[T]) DenseViewEx(e Exec) (*Vec[T], error) {
	if v.indexed() {
		return v, nil
	}
	if v.N > maxBitmap {
		return nil, ErrBudget
	}
	return v.memoView(&e, v.viewBytes(), v.scatter)
}

// scatter copies a sorted v's entries into fresh bitmap slots.
func (v *Vec[T]) scatter() *Vec[T] {
	d := &Vec[T]{N: v.N, Val: make([]T, v.N), Bit: make([]bool, v.N), nb: uint32(len(v.Ind))}
	for k, i := range v.Ind {
		d.Val[i], d.Bit[i] = v.Val[k], true
	}
	return d
}

// sortedEx returns v in sorted coordinates: v itself, or the sorted view of
// a bitmap or a full vector. It is the door to those forms for every kernel
// that reads Ind and holds an Exec, and the kernel takes it itself: it is
// unexported so that no caller converts an operand for it. The view is
// memoized, charged like DenseViewEx's, and pinned: a kernel that returns it
// as its result hands the next object storage that is never written again.
func (v *Vec[T]) sortedEx(e Exec) (*Vec[T], error) {
	if v.Bit == nil && !v.full() {
		return v, nil
	}
	var zero T
	return v.memoView(&e, int64(v.NNZ())*int64(unsafe.Sizeof(zero)+8), v.sortedView)
}

// Sorted is sortedEx for a kernel that holds no Exec and for a synchronous
// reader: the view is neither charged nor probed, like the output such a
// kernel allocates beside it.
func (v *Vec[T]) Sorted() *Vec[T] {
	if v.Bit == nil && !v.full() {
		return v
	}
	s, _ := v.memoView(nil, 0, v.sortedView) // unpaid, it cannot fail
	return s
}

// sortedView builds the sorted view of a bitmap or a full vector, pinned:
// it is never written again.
func (v *Vec[T]) sortedView() *Vec[T] {
	s := GatherVec(v.Val, v.Bit)
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
	obsv.FormatConversions.Add(1)
	obsv.ScratchBytes.Add(bytes)
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

// bitmapBase returns the indexed vector a scatter kernel updates c into
// with at most delta new entries — those of src, when the kernel scatters
// an operand — or nil when c is sorted and the kernel keeps its sorted
// merge. It is the door to the step's grant of indexed storage, as reuseVal
// is to a value array: when e.Spare is c and c is indexed, c's own Val and
// Bit, written in place; a copy of them — its values in the granted array
// when the step granted another's — when someone else can still read c;
// fresh slots holding c's entries when c is a granted sorted vector whose
// result may reach bitmapCut. A dense c comes back without flags, as the
// full form; a sorted c wider than maxBitmap is never made a bitmap. When
// the step granted an indexed src it returns nil, so that the kernel
// updates src in place and never writes the storage it scatters from.
func bitmapBase[T any](e Exec, c, src *Vec[T], delta int) *Vec[T] {
	granted := e.Spare == any(c)
	switch {
	case c.indexed() && granted:
		return &Vec[T]{N: c.N, Val: c.Val, Bit: c.Bit, nb: c.nb}
	case src != nil && e.Spare == any(src) && src.indexed():
		return nil
	case c.indexed():
		return &Vec[T]{N: c.N, Val: reuseVal(e, c.N, c.Val), Bit: slices.Clone(c.Bit), nb: c.nb}
	case granted && c.N <= maxBitmap && (c.NNZ()+delta)*bitmapCut >= c.N:
		return c.scatter()
	}
	return nil
}

// installAt folds x into position i of the indexed vector v a kernel is
// building: add(v(i), x) — add(x, v(i)) when x is add's first operand —
// where v stores i and add is non-nil, x otherwise.
func (v *Vec[T]) installAt(i int, x T, add func(T, T) T, xFirst bool) {
	switch {
	case !v.has(i):
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

// installSettled finishes an indexed vector a scatter kernel built: a
// bitmap that came out full drops its flags and takes the full form, its
// Val already the value array.
func installSettled[T any](v *Vec[T]) *Vec[T] {
	if int(v.nb) == v.N {
		v.Bit, v.nb = nil, 0
	}
	DebugCheckVec(v, "bitmap scatter")
	return v
}
