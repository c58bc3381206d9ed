package grb

import (
	"math/rand"
	"testing"
)

// TestModesProduceIdenticalResults is a differential test of the deferred
// execution engine: the same randomized program — element updates, products,
// element-wise combines, selects, applies, assigns, in random order — is run
// once in Blocking and once in NonBlocking mode, and the final object states
// must be identical. §III requires deferred execution to be observationally
// equivalent to eager execution.
func TestModesProduceIdenticalResults(t *testing.T) {
	type step struct {
		kind int
		i, j Index
		v    int
	}
	makeProgram := func(rng *rand.Rand, steps int) []step {
		out := make([]step, steps)
		for k := range out {
			out[k] = step{
				kind: rng.Intn(8),
				i:    rng.Intn(6),
				j:    rng.Intn(6),
				v:    rng.Intn(50),
			}
		}
		return out
	}

	run := func(t *testing.T, mode Mode, prog []step) ([]Index, []Index, []int) {
		setMode(t, mode)
		a := mustMatrix(t, 6, 6,
			[]Index{0, 1, 2, 3, 4, 5}, []Index{1, 2, 3, 4, 5, 0},
			[]int{1, 2, 3, 4, 5, 6})
		c := mustMatrix(t, 6, 6,
			[]Index{0, 3}, []Index{0, 3}, []int{10, 20})
		for _, s := range prog {
			var err error
			switch s.kind {
			case 0:
				err = c.SetElement(s.v, s.i, s.j)
			case 1:
				err = c.RemoveElement(s.i, s.j)
			case 2:
				err = MxM(c, nil, Plus[int], PlusTimes[int](), a, a, nil)
			case 3:
				err = EWiseAddMatrix(c, nil, nil, Plus[int], c, a, nil)
			case 4:
				err = MatrixSelect(c, nil, nil, ValueLT[int], c, 1000, nil)
			case 5:
				err = MatrixApplyBindSecond(c, nil, nil, func(x, m int) int { return (x + m) % 997 }, c, s.v, nil)
			case 6:
				err = MatrixAssignScalar(c, nil, Plus[int], s.v, []Index{s.i}, []Index{s.j}, nil)
			case 7:
				err = Transpose(c, nil, Plus[int], c, DescT0) // accumulate a copy of itself
			}
			if err != nil {
				t.Fatalf("mode %v step %+v: %v", mode, s, err)
			}
		}
		if err := c.Wait(Materialize); err != nil {
			t.Fatalf("mode %v materialize: %v", mode, err)
		}
		I, J, X, err := c.ExtractTuples()
		if err != nil {
			t.Fatal(err)
		}
		return I, J, X
	}

	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := makeProgram(rng, 25)
		bi, bj, bx := run(t, Blocking, prog)
		ni, nj, nx := run(t, NonBlocking, prog)
		if len(bi) != len(ni) {
			t.Fatalf("seed %d: nvals %d (blocking) vs %d (nonblocking)", seed, len(bi), len(ni))
		}
		for k := range bi {
			if bi[k] != ni[k] || bj[k] != nj[k] || bx[k] != nx[k] {
				t.Fatalf("seed %d: entry %d differs: (%d,%d)=%d vs (%d,%d)=%d",
					seed, k, bi[k], bj[k], bx[k], ni[k], nj[k], nx[k])
			}
		}
	}
}
