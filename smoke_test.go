package grb

import "testing"

// TestSmokeMxM checks a small known product in both execution modes.
func TestSmokeMxM(t *testing.T) {
	for _, mode := range []Mode{Blocking, NonBlocking} {
		t.Run(mode.String(), func(t *testing.T) {
			setMode(t, mode)
			// A = [[1 2],[0 3]], B = [[4 0],[5 6]] (as sparse)
			a := mustMatrix(t, 2, 2, []Index{0, 0, 1}, []Index{0, 1, 1}, []float64{1, 2, 3})
			b := mustMatrix(t, 2, 2, []Index{0, 1, 1}, []Index{0, 0, 1}, []float64{4, 5, 6})
			c, err := NewMatrix[float64](2, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := MxM(c, nil, nil, PlusTimes[float64](), a, b, nil); err != nil {
				t.Fatal(err)
			}
			// C = [[14 12],[15 18]]
			matrixEquals(t, c, []Index{0, 0, 1, 1}, []Index{0, 1, 0, 1}, []float64{14, 12, 15, 18})
		})
	}
}

func TestSmokeMxVAndVxM(t *testing.T) {
	setMode(t, Blocking)
	a := mustMatrix(t, 2, 3, []Index{0, 0, 1}, []Index{0, 2, 1}, []float64{1, 2, 3})
	u := mustVector(t, 3, []Index{0, 1, 2}, []float64{1, 1, 1})
	w, err := NewVector[float64](2)
	if err != nil {
		t.Fatal(err)
	}
	if err := MxV(w, nil, nil, PlusTimes[float64](), a, u, nil); err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, w, []Index{0, 1}, []float64{3, 3})

	v := mustVector(t, 2, []Index{0, 1}, []float64{1, 2})
	x, err := NewVector[float64](3)
	if err != nil {
		t.Fatal(err)
	}
	if err := VxM(x, nil, nil, PlusTimes[float64](), v, a, nil); err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, x, []Index{0, 1, 2}, []float64{1, 6, 2})
}

func TestSmokeMaskAccumReplace(t *testing.T) {
	setMode(t, Blocking)
	c := mustVector(t, 4, []Index{0, 1, 2, 3}, []int{10, 20, 30, 40})
	u := mustVector(t, 4, []Index{0, 1}, []int{1, 2})
	v := mustVector(t, 4, []Index{1, 2}, []int{5, 6})
	mask := mustVector(t, 4, []Index{0, 1, 3}, []bool{true, false, true})

	// plain value mask, accumulate with plus, no replace:
	// t = u (+) v = {0:1, 1:7, 2:6}; z = c + t = {11, 27, 36, 40}
	// mask true at 0 (take z), false/absent at 1,2 (keep c), true at 3 (take z)
	if err := EWiseAddVector(c, mask, Plus[int], Plus[int], u, v, nil); err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, c, []Index{0, 1, 2, 3}, []int{11, 20, 30, 40})

	// replace + structural mask: positions 0,1,3 admitted, others deleted
	c2 := mustVector(t, 4, []Index{0, 1, 2, 3}, []int{10, 20, 30, 40})
	if err := EWiseAddVector(c2, mask, Plus[int], Plus[int], u, v, DescRS); err != nil {
		t.Fatal(err)
	}
	// z = {11,27,36,40}; structural mask admits 0,1,3 -> take z; 2 deleted (replace)
	vectorEquals(t, c2, []Index{0, 1, 3}, []int{11, 27, 40})
}

func TestSmokeNonblockingDeferral(t *testing.T) {
	setMode(t, NonBlocking)
	a := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{1, 0}, []int{1, 1})
	c, err := NewMatrix[int](2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := MxM(c, nil, nil, PlusTimes[int](), a, a, nil); err != nil {
		t.Fatal(err)
	}
	// Wait(Complete) then read.
	if err := c.Wait(Complete); err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, c, []Index{0, 1}, []Index{0, 1}, []int{1, 1})
}
