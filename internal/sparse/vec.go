package sparse

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
	"unsafe"
)

// Vec is a generic sparse vector, resident in one of three forms (DESIGN.md,
// "Vector write-back"). Sorted (Bit nil, Ind as long as Val): Ind holds the
// positions of stored entries in strictly increasing order and Val their
// values. Bitmap: Val and Bit hold N slots each, Bit[i] says whether position
// i stores an entry, Ind is nil and nb counts the entries. Full: Val holds all
// N values in position order, Ind and Bit are nil — no sorted vector has a
// nil Ind beside a non-empty Val, so the form needs no field of its own.
// Kernels return a fresh Vec, but a sorted output's Ind may be an operand's —
// the same backing array — when the pattern is unchanged; nothing writes an
// Ind once it is built, and a Bit is never shared. Val and Bit are written
// again only by the drain that supersedes them, when Holds shows that nothing
// else can read them (DESIGN.md, "Writing into superseded storage").
type Vec[T any] struct {
	N   int
	Ind []int
	Val []T
	Bit []bool

	// view memoizes another form: a sorted vector's bitmap (DenseViewEx), a
	// bitmap's or a full vector's sorted coordinates (sortedEx). As with
	// CSR.tr, a snapshot's values do not change while anyone can read it, so
	// it never goes stale.
	view atomic.Pointer[Vec[T]]

	nb uint32 // the entries Bit marks: a bitmap has at most maxBitmap positions
	Holds
}

// maxBitmap bounds a bitmap's positions, so that its count fits the 32 bits
// that keep the Vec header in the 96-byte size class.
const maxBitmap = math.MaxUint32

// Holds is the grb layer's ledger of who can read a vector snapshot: a count
// of readers (pending operations that took it as an operand, a synchronous
// reader while it reads) and a mark saying whether Val is its object's own,
// packed in one word — the count in units of holdReader above the mark's two
// bits. All methods are nil-safe, so a matrix, which never lends, passes nil.
type Holds struct {
	word atomic.Int32
}

const (
	holdFree   = iota // a fresh result no object has installed yet
	holdOwned         // the object's own drain allocated Val
	holdPinned        // a second holder keeps the storage beyond any count

	holdReader = 4 // one reader, counted above the mark
)

// Lend counts one more reader.
func (h *Holds) Lend() {
	if h != nil {
		h.word.Add(holdReader)
	}
}

// Release drops a reader Lend counted.
func (h *Holds) Release() {
	if h != nil {
		h.word.Add(-holdReader)
	}
}

// Pin marks the storage held beyond any count: it is never written again.
func (h *Holds) Pin() {
	for h != nil {
		if w := h.word.Load(); w&holdPinned != 0 || h.word.CompareAndSwap(w, w|holdPinned) {
			return
		}
	}
}

// Claim is called when a drain installs the snapshot in place of cur. A
// fresh result with no reader becomes the object's own; anything else a
// kernel returned (an operand, as u ⊕ ∅ returns u) is another holder's too,
// and is pinned.
func (h *Holds) Claim(cur *Holds) {
	if h != nil && h != cur && !h.word.CompareAndSwap(holdFree, holdOwned) {
		h.Pin()
	}
}

// Sole reports whether the storage is its object's own and the lends the
// caller holds on it are all its readers: the drain holding them may write
// into it.
func (h *Holds) Sole(lends int) bool {
	return h != nil && h.word.Load() == int32(lends)*holdReader|holdOwned
}

// reuseVal returns an n-entry value array for a kernel's output, holding a
// copy of init if init is non-nil. It is the one door to the step's grant:
// when e.Spare, the snapshot the output supersedes, has an n-entry Val, it
// returns that array (holding old values where init is nil: the caller
// writes every position). A kernel passes its Exec to one call at most.
func reuseVal[T any](e Exec, n int, init []T) []T {
	if old, ok := e.Spare.(*Vec[T]); ok && len(old.Val) == n && n > 0 {
		if len(init) > 0 && &init[0] != &old.Val[0] {
			copy(old.Val, init)
		}
		return old.Val
	}
	if init != nil {
		return slices.Clone(init)
	}
	return make([]T, n) //grblint:ignore budgetcheck -- an output's value array, not scratch
}

// NewVec returns an empty vector of size n.
func NewVec[T any](n int) *Vec[T] { return &Vec[T]{N: n} }

// NNZ returns the number of stored entries.
func (v *Vec[T]) NNZ() int {
	if v.Bit != nil {
		return int(v.nb)
	}
	return len(v.Val)
}

// full reports whether v is in the full form: all N values, no Ind, no Bit.
func (v *Vec[T]) full() bool { return v.Ind == nil && v.Bit == nil && len(v.Val) > 0 }

// dense reports whether v stores every position, in whichever form: its Val
// then holds the value of position i at i.
func (v *Vec[T]) dense() bool { return v.NNZ() == v.N }

// indexed reports whether v is read through the position-indexed door: a
// bitmap, or a vector that stores every position. Its Val holds position
// i's value at i, and has says which slots are stored.
func (v *Vec[T]) indexed() bool { return v.Bit != nil || v.dense() }

// has reports whether slot k of an indexed vector stores an entry — a full
// vector is a bitmap whose every flag is set — and is true for every slot
// of a sorted one.
func (v *Vec[T]) has(k int) bool { return v.Bit == nil || v.Bit[k] }

// at returns the entry at position j for a walk in ascending j: by position
// when v is indexed, else through the cursor k into Ind, advanced up to j.
func (v *Vec[T]) at(j int, k *int) (x T, ok bool) {
	if v.indexed() {
		return v.Val[j], v.has(j)
	}
	for *k < len(v.Ind) && v.Ind[*k] < j {
		*k++
	}
	if *k < len(v.Ind) && v.Ind[*k] == j {
		return v.Val[*k], true
	}
	return x, false
}

// Each calls f on each stored entry of v in index order, reading v in its
// resident form, until f returns false: the one walk over a vector in any
// form, inlined with f at every call site. Over a bitmap it branches on
// every position; a reader that may meet a long one takes scan.
func (v *Vec[T]) Each(f func(i int, x T) bool) {
	for k, x := range v.Val {
		i := k // a bitmap's or a full vector's slot
		if v.Ind != nil {
			i = v.Ind[k]
		}
		if v.has(k) && !f(i, x) {
			return
		}
	}
}

// scan is Each for a reader that may meet a long bitmap: it reads the flags
// eight at a time (flagWord) and branches per stored entry, not per
// position — 2.5–7× faster than Each over a 65 536-position bitmap at 4–49 %
// density. Too large to inline, it calls f through a pointer, so a sorted or
// full v costs an indirect call an entry more than Each.
func scan[T any](v *Vec[T], f func(i int, x T) bool) {
	if v.Bit == nil {
		v.Each(f)
		return
	}
	for base := 0; base < len(v.Bit); base += 8 {
		for w := flagWord(v.Bit, base); w != 0; w &= w - 1 {
			if j := base + bits.TrailingZeros64(w)>>3; !f(j, v.Val[j]) {
				return
			}
		}
	}
}

// Clone returns a deep copy, each array allocated at its size.
func (v *Vec[T]) Clone() *Vec[T] {
	return &Vec[T]{N: v.N, nb: v.nb, Ind: append(growExact[int](nil, len(v.Ind)), v.Ind...),
		Val: append(growExact[T](nil, len(v.Val)), v.Val...), Bit: append(growExact[bool](nil, len(v.Bit)), v.Bit...)}
}

// Get returns the entry at i and whether it is present: a bitmap's or a
// full vector's by position, a sorted vector's by search.
func (v *Vec[T]) Get(i int) (T, bool) {
	if v.Ind == nil && len(v.Val) > 0 && v.has(i) {
		return v.Val[i], true
	}
	k := sort.SearchInts(v.Ind, i) // a bitmap's unset slot: no Ind, not found
	if k < len(v.Ind) && v.Ind[k] == i {
		return v.Val[k], true
	}
	var zero T
	return zero, false
}

// Valid performs an internal-consistency check of the sorted form.
func (v *Vec[T]) Valid() bool {
	if v.N < 0 || len(v.Ind) != len(v.Val) {
		return false
	}
	for k := range v.Ind {
		if v.Ind[k] < 0 || v.Ind[k] >= v.N {
			return false
		}
		if k > 0 && v.Ind[k-1] >= v.Ind[k] {
			return false
		}
	}
	return true
}

// BuildVec constructs a size-n vector from coordinate pairs (I[k], X[k]).
// Duplicates are combined with dup; a nil dup makes duplicates an error,
// matching GraphBLAS 2.0 §IX.
func BuildVec[T any](n int, I []int, X []T, dup func(T, T) T) (*Vec[T], error) {
	if len(I) != len(X) {
		return nil, errors.New("sparse: build slices have unequal lengths")
	}
	for _, i := range I {
		if i < 0 || i >= n {
			return nil, ErrIndexOutOfBounds
		}
	}
	perm := make([]int, len(I))
	for k := range perm {
		perm[k] = k
	}
	sort.SliceStable(perm, func(a, b int) bool { return I[perm[a]] < I[perm[b]] })
	v := &Vec[T]{N: n, Ind: make([]int, 0, len(I)), Val: make([]T, 0, len(I))}
	for s := 0; s < len(perm); {
		k := perm[s]
		i, x := I[k], X[k]
		s++
		for s < len(perm) && I[perm[s]] == i {
			if dup == nil {
				return nil, ErrDuplicate
			}
			x = dup(x, X[perm[s]])
			s++
		}
		v.Ind = append(v.Ind, i)
		v.Val = append(v.Val, x)
	}
	DebugCheckVec(v, "BuildVec")
	return v, nil
}

// VTuple is a pending vector update (see Tuple).
type VTuple[T any] struct {
	Idx int
	Val T
	Del bool
}

// MergeVTuples folds pending updates into v, later updates winning. A
// dense v that no update deletes from stays dense, in the full form.
func MergeVTuples[T any](v *Vec[T], tuples []VTuple[T]) (*Vec[T], error) {
	if len(tuples) == 0 {
		return v, nil
	}
	dense := v.dense()
	for _, t := range tuples {
		if t.Idx < 0 || t.Idx >= v.N {
			return nil, ErrIndexOutOfBounds
		}
		dense = dense && !t.Del
	}
	if dense {
		out := &Vec[T]{N: v.N, Val: slices.Clone(v.Val)}
		for _, t := range tuples {
			out.Val[t.Idx] = t.Val
		}
		return out, nil
	}
	v = v.Sorted()
	row := make([]Tuple[T], len(tuples)) // the one-row case of MergeTuples
	for k, t := range tuples {
		row[k] = Tuple[T]{Col: t.Idx, Val: t.Val, Del: t.Del}
	}
	row = sortedTuples(row)
	ind, val := makeRun[T](len(v.Ind) + len(row))
	ind, val = tupleRun(ind, val, v.run(), row)
	out := &Vec[T]{N: v.N, Ind: ind, Val: val}
	DebugCheckVec(out, "MergeVTuples")
	return out, nil
}

// Resize returns a copy of v with the new size (entries beyond n dropped).
func (v *Vec[T]) Resize(n int) *Vec[T] {
	v = v.Sorted()
	k := sort.SearchInts(v.Ind, n)
	out := &Vec[T]{N: n, Ind: slices.Clone(v.Ind[:k]), Val: slices.Clone(v.Val[:k])}
	DebugCheckVec(out, "Vec.Resize")
	return out
}

// GatherVec compresses the slots of an indexed vector — values plus
// presence flags, nil when every slot is stored — into a sorted vector
// whose Ind and Val are allocated once, at the count.
func GatherVec[T any](dv []T, ok []bool) *Vec[T] {
	v := &Vec[T]{N: len(dv), Val: dv, Bit: ok, nb: uint32(popcount(ok))}
	out := &Vec[T]{N: v.N}
	out.Ind, out.Val = v.VecTuples(nil, nil)
	DebugCheckVec(out, "GatherVec")
	return out
}

// VecEqualFunc reports whether a and b store the same positions with
// values identical under eq, in whichever forms they are.
func VecEqualFunc[T any](a, b *Vec[T], eq func(T, T) bool) bool {
	if a.N != b.N || a.NNZ() != b.NNZ() {
		return false
	}
	if a.dense() { // so is b: each Val holds position i at i
		for i := range a.Val {
			if !eq(a.Val[i], b.Val[i]) {
				return false
			}
		}
		return true
	}
	a, b = a.Sorted(), b.Sorted()
	for k := range a.Ind {
		if a.Ind[k] != b.Ind[k] || !eq(a.Val[k], b.Val[k]) {
			return false
		}
	}
	return true
}

// VecTuples appends (index, value) pairs of v to I, X in index order and
// returns them, walking v in its resident form.
func (v *Vec[T]) VecTuples(I []int, X []T) ([]int, []T) {
	I, X = growExact(I, v.NNZ()), growExact(X, v.NNZ())
	scan(v, func(i int, x T) bool {
		I, X = append(I, i), append(X, x)
		return true
	})
	return I, X
}

// popcount counts the set flags of a bitmap, eight at a time: a word's byte
// sum is its count, with no branch on a flag.
func popcount(bit []bool) int {
	n := 0
	for base := 0; base < len(bit); base += 8 {
		n += int(flagWord(bit, base) * 0x0101010101010101 >> 56)
	}
	return n
}

// flagWord returns the flags bit[base:base+8] as one word, flag base+k in
// byte k (a bool is one byte, 0 or 1): scan takes its set flags by trailing
// zeros.
func flagWord(bit []bool, base int) uint64 {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(bit))), len(bit))[base:]
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var w uint64
	for k, x := range b {
		w |= uint64(x) << (8 * k)
	}
	return w
}
