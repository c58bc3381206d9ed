package sparse

import (
	"cmp"
	"slices"

	"github.com/grblas/grb/internal/parallel"
)

// run is one sorted run of (index, value) pairs: a Vec's storage, or one row
// of a CSR. The run kernels below are every merge the element-wise, mask,
// assign, extract and tuple kernels perform, written once for both shapes —
// a vector is the one-row case. Each takes operand runs whose indices are
// strictly increasing, appends its result in increasing order to the output
// (ind, val) and returns it; none writes an operand, and none reads the
// output's earlier entries (DESIGN.md, "Runs and rows"). The output is a pair
// of slices, not a run: a run is 48 bytes, which the compiler keeps in memory,
// and every append would go through it.
type run[T any] struct {
	ind []int
	val []T
}

func (m *CSR[T]) run(i int) run[T] {
	ind, val := m.Row(i)
	return run[T]{ind, val}
}

// span returns the number of entries stored in rows [lo, hi).
func (m *CSR[T]) span(lo, hi int) int { return m.Ptr[hi] - m.Ptr[lo] }

func (v *Vec[T]) run() run[T] { return run[T]{v.Ind, v.Val} }

// appendRun appends all of r, for the rows and tails that pass through.
func appendRun[T any](ind []int, val []T, r run[T]) ([]int, []T) {
	return append(ind, r.ind...), append(val, r.val...)
}

// makeRun returns an empty output of capacity n.
func makeRun[T any](n int) ([]int, []T) { return make([]int, 0, n), make([]T, 0, n) }

// unionRun appends a ∪ b: op(a, b) where both store an index (b's value when
// op is nil: b overwrites), the lone value otherwise.
func unionRun[T any](ind []int, val []T, a, b run[T], op func(T, T) T) ([]int, []T) {
	aInd, aVal, bInd, bVal := a.ind, a.val, b.ind, b.val
	ai, bi := 0, 0
	for ai < len(aInd) && bi < len(bInd) {
		switch {
		case aInd[ai] < bInd[bi]:
			ind, val = append(ind, aInd[ai]), append(val, aVal[ai])
			ai++
		case bInd[bi] < aInd[ai]:
			ind, val = append(ind, bInd[bi]), append(val, bVal[bi])
			bi++
		default:
			v := bVal[bi]
			if op != nil {
				v = op(aVal[ai], v)
			}
			ind, val = append(ind, aInd[ai]), append(val, v)
			ai++
			bi++
		}
	}
	ind, val = append(ind, aInd[ai:]...), append(val, aVal[ai:]...)
	return append(ind, bInd[bi:]...), append(val, bVal[bi:]...)
}

// intersectRun appends a ∩ b with mul applied to each co-located pair.
func intersectRun[A, B, C any](ind []int, val []C, a run[A], b run[B], mul func(A, B) C) ([]int, []C) {
	aInd, aVal, bInd, bVal := a.ind, a.val, b.ind, b.val
	ai, bi := 0, 0
	for ai < len(aInd) && bi < len(bInd) {
		switch {
		case aInd[ai] < bInd[bi]:
			ai++
		case bInd[bi] < aInd[ai]:
			bi++
		default:
			ind, val = append(ind, aInd[ai]), append(val, mul(aVal[ai], bVal[bi]))
			ai++
			bi++
		}
	}
	return ind, val
}

// maskRun appends C⟨M⟩ = Z: an index the mask admits takes z's entry (or
// none), any other keeps c's. Replace is an empty c. The mask is m's stored
// trues — its pattern alone when structural — or, complemented, everything
// else.
func maskRun[T any](ind []int, val []T, c, z run[T], m run[bool], structural, complement bool) ([]int, []T) {
	cInd, cVal, zInd, zVal, mInd, mVal := c.ind, c.val, z.ind, z.val, m.ind, m.val
	ci, zi, mi := 0, 0, 0
	for ci < len(cInd) || zi < len(zInd) {
		hasC := ci < len(cInd) && (zi == len(zInd) || cInd[ci] <= zInd[zi])
		hasZ := zi < len(zInd) && (ci == len(cInd) || zInd[zi] <= cInd[ci])
		j := 0 // the smaller head; hasC and hasZ say who stores it
		if hasC {
			j = cInd[ci]
		} else {
			j = zInd[zi]
		}
		admit := maskTest(mInd, mVal, structural, j, &mi) != complement
		switch {
		case admit && hasZ:
			ind, val = append(ind, j), append(val, zVal[zi])
		case !admit && hasC:
			ind, val = append(ind, j), append(val, cVal[ci])
		}
		if hasC {
			ci++
		}
		if hasZ {
			zi++
		}
	}
	return ind, val
}

// sortedTuples puts pending updates, in place, in (row, column) order with
// one update per coordinate: the last in program order.
func sortedTuples[T any](ts []Tuple[T]) []Tuple[T] {
	slices.SortStableFunc(ts, func(a, b Tuple[T]) int {
		if c := cmp.Compare(a.Row, b.Row); c != 0 {
			return c
		}
		return cmp.Compare(a.Col, b.Col)
	})
	w := 0
	for k, t := range ts {
		if k+1 < len(ts) && ts[k+1].Row == t.Row && ts[k+1].Col == t.Col {
			continue
		}
		ts[w] = t
		w++
	}
	return ts[:w]
}

// tupleRun appends a with one row's updates, from sortedTuples, applied: a
// set overwrites or inserts, a delete removes.
func tupleRun[T any](ind []int, val []T, a run[T], ts []Tuple[T]) ([]int, []T) {
	aInd, aVal := a.ind, a.val
	k := 0
	for _, t := range ts {
		lo := k
		for k < len(aInd) && aInd[k] < t.Col {
			k++
		}
		ind, val = append(ind, aInd[lo:k]...), append(val, aVal[lo:k]...)
		if k < len(aInd) && aInd[k] == t.Col {
			k++
		}
		if !t.Del {
			ind, val = append(ind, t.Col), append(val, t.Val)
		}
	}
	return append(ind, aInd[k:]...), append(val, aVal[k:]...)
}

// gatherRun appends a mapped into target columns, in target order: the entry
// at source column c lands on the positions inv lists for c (invertList). Where
// several entries land on one target the last in a's order stays. The
// appended part is sorted only if the map was not monotone for this run.
func gatherRun[T any](ind []int, val []T, a run[T], inv inverse) ([]int, []T) {
	start := len(ind)
	ascending := true
	for k, c := range a.ind {
		lo, hi := inv.span(c)
		for _, j := range inv.pos[lo:hi] {
			ascending = ascending && (len(ind) == start || ind[len(ind)-1] < j)
			ind, val = append(ind, j), append(val, a.val[k])
		}
	}
	if ascending {
		return ind, val
	}
	gInd, gVal := ind[start:], val[start:]
	SortRow(gInd, gVal)
	w := 0
	for k, j := range gInd {
		if k+1 < len(gInd) && gInd[k+1] == j {
			continue
		}
		gInd[w], gVal[w] = j, gVal[k]
		w++
	}
	return ind[:start+w], val[:start+w]
}

// rowwise builds a rows×cols matrix one row at a time: emit appends row i to
// the output it is handed. Rows are split into at most workers ranges — the
// caller sizes them by the entries it reads (Exec.workers); each range fills
// one buffer allocated once at bound(lo, hi), an upper bound on what rows
// [lo, hi) emit, and installStitched assembles them. It is the one
// row-parallel scaffold of the element-wise kernels; emit runs concurrently
// for different rows, and a panic in it reaches the caller (from a forked
// section, as parallel.WorkerPanic).
func rowwise[T any](rows, cols, workers int, bound func(lo, hi int) int,
	emit func(i int, ind []int, val []T) ([]int, []T)) *CSR[T] {
	out := NewCSR[T](rows, cols)
	parts := parallel.Ranges(rows, workers)
	pInd := make([][]int, len(parts)-1)
	pVal := make([][]T, len(parts)-1)
	rowLen := make([]int, rows)
	parallel.Run(parts, workers, func(part, lo, hi int) {
		ind, val := makeRun[T](bound(lo, hi))
		for i := lo; i < hi; i++ {
			start := len(ind)
			ind, val = emit(i, ind, val)
			rowLen[i] = len(ind) - start
		}
		pInd[part], pVal[part] = ind, val
	})
	installStitched(out, pInd, pVal, rowLen)
	return out
}
