// Package sparse is the snapshotcheck corpus: a miniature copy of the
// substrate's snapshot types plus every write shape the analyzer guards.
// The analyzer only runs on packages named "sparse", so the corpus carries
// the types and the offending code in one package, like the real substrate.
package sparse

// CSR is a stub of the immutable CSR snapshot.
type CSR[T any] struct {
	Rows, Cols int
	Ptr        []int
	Ind        []int
	Val        []T
}

// Vec is a stub of the sparse-vector snapshot, in either form.
type Vec[T any] struct {
	N   int
	Ind []int
	Val []T
	Bit []bool
}

// Exec is a stub of the execution environment, whose Spare carries the
// step's grant of a superseded vector.
type Exec struct {
	Threads int
	Spare   any
}

// reuseVal is the grant's one door: it may read Exec.Spare, and an array it
// returns is its caller's to write.
func reuseVal[T any](e Exec, n int) []T {
	if old, ok := e.Spare.(*Vec[T]); ok && len(old.Val) == n {
		return old.Val
	}
	return make([]T, n)
}

// bitmapBase is the bitmap's door: it may read Exec.Spare and hand out the
// superseded Val and Bit.
func bitmapBase[T any](e Exec, c *Vec[T]) *Vec[T] {
	if e.Spare == any(c) {
		return &Vec[T]{N: c.N, Val: c.Val, Bit: c.Bit}
	}
	return &Vec[T]{N: c.N, Val: make([]T, c.N), Bit: make([]bool, c.N)}
}

// markGranted writes into what the bitmap's door returned: no diagnostic.
func markGranted(c *Vec[int], i int, e Exec) *Vec[int] {
	out := bitmapBase(e, c)
	out.Bit[i], out.Val[i] = true, 1
	return out
}

// markOperand writes a parameter's flags outside the doors.
func markOperand(c *Vec[int], i int) {
	c.Bit[i] = true // want `snapshot c\.Bit assigned to a Vec parameter's storage`
}

// shareBit builds outputs that alias an operand's Bit, in a literal and by a
// field assignment: only Ind may be shared.
func shareBit(u *Vec[int]) (*Vec[int], *Vec[int]) {
	lit := &Vec[int]{N: u.N, Val: make([]int, u.N), Bit: u.Bit} // want `lit takes an operand's Bit`
	later := &Vec[int]{N: u.N, Val: make([]int, u.N)}
	later.Bit = u.Bit // want `later takes an operand's Bit`
	return lit, later
}

// fullOnOperand builds a full vector — no Ind — on an operand's values,
// whole and re-sliced; a sorted view that lists an Ind beside them is not
// reported.
func fullOnOperand(u *Vec[int]) (*Vec[int], *Vec[int], *Vec[int]) {
	full := &Vec[int]{N: u.N, Val: u.Val}                        // want `full is a full Vec on an operand's Val`
	head := &Vec[int]{N: u.N / 2, Val: u.Val[:u.N/2]}            // want `head is a full Vec on an operand's Val`
	view := &Vec[int]{N: u.N, Ind: make([]int, u.N), Val: u.Val} // sorted: its own Ind
	return full, head, view
}

// fillGranted writes through the door: no diagnostic.
func fillGranted(u *Vec[int], e Exec) *Vec[int] {
	out := &Vec[int]{N: u.N, Ind: u.Ind, Val: reuseVal[int](e, len(u.Val))}
	for k := range out.Val {
		out.Val[k] = 2 * u.Val[k]
	}
	return out
}

// fillBypass takes the grant itself and writes the superseded vector
// unchecked.
func fillBypass(u *Vec[int], e Exec) *Vec[int] {
	old, _ := e.Spare.(*Vec[int]) // want `Exec\.Spare used outside reuseVal and bitmapBase`
	old.Val[0] = u.Val[0]
	return old
}

// forgeGrant hands a sub-kernel an operand as if the step had granted it.
func forgeGrant(u *Vec[int]) *Vec[int] {
	return fillGranted(u, Exec{Spare: u}) // want `Exec\.Spare used outside reuseVal`
}

// NewCSR is a blessed constructor (new* prefix): writes are fine here.
func NewCSR(rows, cols, nnz int) *CSR[float64] {
	c := &CSR[float64]{Rows: rows, Cols: cols}
	c.Ptr = make([]int, rows+1)
	c.Ind = make([]int, nnz)
	c.Val = make([]float64, nnz)
	return c
}

// installRowPtr is a blessed install helper (install* prefix): exempt.
func installRowPtr(c *CSR[float64], ptr []int) {
	c.Ptr = ptr
}

func scaleInPlace(c *CSR[float64], f float64) {
	for i := range c.Val {
		c.Val[i] *= f // want `snapshot c\.Val assigned to a CSR parameter's storage`
	}
}

func (c *CSR[T]) compact() {
	c.Ptr = nil // want `snapshot c\.Ptr assigned to a CSR parameter's storage`
}

func bumpFirst(c *CSR[int]) {
	c.Ptr[0]++ // want `snapshot c\.Ptr mutated by \+\+/-- through a CSR parameter's storage`
}

func overwrite(v *Vec[int], src []int) {
	copy(v.Ind, src) // want `snapshot v\.Ind written by copy through a Vec parameter's storage`
	clear(v.Val)     // want `snapshot v\.Val written by clear through a Vec parameter's storage`
}

// freshOutput allocates its own result: writes to locals are fine.
func freshOutput(c *CSR[int]) *CSR[int] {
	out := &CSR[int]{Rows: c.Rows, Cols: c.Cols}
	out.Ptr = make([]int, c.Rows+1)
	out.Ind = append(out.Ind, c.Ind...)
	out.Val = append(out.Val, c.Val...)
	return out
}

// headerWrite touches a non-storage field: dims are not guarded.
func headerWrite(c *CSR[int]) {
	c.Rows = c.Rows
}

// normalize is deliberately mutating a test-local vector; the suppression
// convention keeps it quiet.
func normalize(v *Vec[int]) {
	for k := 1; k < len(v.Ind); k++ {
		v.Ind[k], v.Ind[k-1] = v.Ind[k-1], v.Ind[k] //grblint:ignore snapshotcheck -- corpus: deliberate in-place normalization
	}
}

// applyShared keeps its operand's pattern: the output shares Ind and owns
// Val, so writes to Val are fine.
func applyShared(u *Vec[int]) *Vec[int] {
	out := &Vec[int]{N: u.N, Ind: u.Ind, Val: make([]int, len(u.Val))}
	for k := range u.Val {
		out.Val[k] = -u.Val[k]
	}
	return out
}

// scribbleShared writes through the shared field in every guarded shape.
func scribbleShared(u *Vec[int]) *Vec[int] {
	out := &Vec[int]{N: u.N, Ind: u.Ind, Val: make([]int, len(u.Val))}
	out.Ind[0] = 7               // want `out\.Ind assigned to storage shared with a snapshot parameter`
	out.Ind[1]++                 // want `out\.Ind mutated by \+\+/-- through storage shared with a snapshot parameter`
	out.Ind = append(out.Ind, 9) // want `out\.Ind grown by append through storage shared with a snapshot parameter`
	copy(out.Ind, u.Ind)         // want `out\.Ind written by copy through storage shared with a snapshot parameter`
	clear(out.Ind[1:])           // want `out\.Ind written by clear through storage shared with a snapshot parameter`
	out.Val[0] = 1
	return out
}

// shareLater takes the operand's storage by field assignment, re-sliced,
// into a value (not pointer) local: shared all the same.
func shareLater(c *CSR[int]) CSR[int] {
	var out CSR[int]
	out.Ptr = c.Ptr[:2]
	out.Ptr[0] = 1 // want `out\.Ptr assigned to storage shared with a snapshot parameter`
	out.Ind = make([]int, 3)
	out.Ind[0] = 1
	return out
}

// rebindShared replaces the shared field with fresh storage: rebinding is
// not a write, and neither is appending to some other slice.
func rebindShared(u *Vec[int], full bool) *Vec[int] {
	var out = &Vec[int]{N: u.N, Ind: u.Ind}
	if !full {
		out.Ind = make([]int, u.N)
	}
	out.Ind = append([]int(nil), u.Ind...)
	return out
}

// adoptScratch installs a slice the function built itself: no operand is
// involved, so nothing is shared.
func adoptScratch(u *Vec[int]) *Vec[int] {
	ind := make([]int, len(u.Ind))
	out := &Vec[int]{N: u.N, Ind: ind}
	out.Ind[0] = 3
	return out
}
