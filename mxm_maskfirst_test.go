package grb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// TestMxMMaskedWriteBack sweeps masked mxm over accumulator × replace ×
// empty/non-empty C × mask interpretation, against the dense reference
// pipeline, on two shapes of one row range each: a 48×48 product at density
// 0.2, which the dense SPA runs (mask-first under a non-complemented mask),
// and a 48×8 by 8×512 product of fewer flops than half its columns, which
// the hash SPA runs. With no accumulator and nothing of C to keep, MxM
// returns the kernel's result without the write-back pass; the sweep covers
// those cells and every one beside them.
func TestMxMMaskedWriteBack(t *testing.T) {
	setMode(t, Blocking)
	rng := rand.New(rand.NewSource(23))
	for _, shape := range []struct {
		rows, inner, cols int
		densA, densB      float64
		hash              bool
	}{
		{48, 48, 48, 0.2, 0.2, false},
		{48, 8, 512, 0.3, 0.003, true},
	} {
		ad := randDense(rng, shape.rows, shape.inner, shape.densA)
		bd := randDense(rng, shape.inner, shape.cols, shape.densB)
		td := newDense(shape.rows, shape.cols)
		for i := 0; i < shape.rows; i++ {
			for k := 0; k < shape.inner; k++ {
				if !ad.ok[i][k] {
					continue
				}
				for j := 0; j < shape.cols; j++ {
					if bd.ok[k][j] {
						td.val[i][j] += ad.val[i][k] * bd.val[k][j]
						td.ok[i][j] = true
					}
				}
			}
		}
		maskVal, maskOk := randDenseBool(rng, shape.rows, shape.cols, 0.15)
		a, b, mask := ad.toMatrix(t), bd.toMatrix(t), boolMatrix(t, maskVal, maskOk)
		for _, cd := range []*denseM{newDense(shape.rows, shape.cols), randDense(rng, shape.rows, shape.cols, 0.3)} {
			for _, withAccum := range []bool{false, true} {
				for _, d := range []Descriptor{{}, {Replace: true}, {Structure: true}, {Replace: true, Structure: true},
					{Complement: true}, {Replace: true, Complement: true, Structure: true}} {
					c := cd.toMatrix(t)
					var accum BinaryOp[int, int, int]
					if withAccum {
						accum = Plus[int]
					}
					ResetKernelCounts()
					if err := MxM(c, mask, accum, PlusTimes[int](), a, b, &d); err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%dx%d accum=%v desc=%+v", shape.rows, shape.cols, withAccum, d)
					checkAgainstDense(t, c, refPipeline(cd, td, maskVal, maskOk, d, withAccum), label)
					if dense, hash := KernelCounts(); dense+hash != 1 || (hash == 1) != shape.hash {
						t.Fatalf("%s: %d dense and %d hash ranges", label, dense, hash)
					}
				}
			}
		}
	}
}

// TestMaskFirstRouteLabel checks what a masked product reports: the kernel
// event names the mask-first plan row as its route_reason, and the call is
// counted as a closure kernel — a mask-first range runs no family loop even
// when the semiring has one — while the same product unmasked counts as mono.
func TestMaskFirstRouteLabel(t *testing.T) {
	setMode(t, NonBlocking)
	rng := rand.New(rand.NewSource(5))
	a := monoRandMatrix(t, rng, 64, func(r *rand.Rand) float64 { return r.NormFloat64() })
	ck(a.Wait(Materialize))
	I, J, _ := ck3(a.ExtractTuples())
	mask := mustMatrix(t, 64, 64, I, J, make([]bool, len(I)))
	ck(mask.Wait(Materialize))

	var buf bytes.Buffer
	ck(TraceTo(&buf))
	ResetKernelCounts()
	masked := ck1(NewMatrix[float64](64, 64))
	ck(MxM(masked, mask, nil, PlusTimes[float64](), a, a, DescS))
	ck(masked.Wait(Materialize))
	if mono, closure := MonoKernelCounts(); mono != 0 || closure != 1 {
		t.Fatalf("masked product: mono=%d closure=%d, want 0/1", mono, closure)
	}
	ResetKernelCounts()
	plain := ck1(NewMatrix[float64](64, 64))
	ck(MxM(plain, nil, nil, PlusTimes[float64](), a, a, nil))
	ck(plain.Wait(Materialize))
	if mono, closure := MonoKernelCounts(); mono != 1 || closure != 0 {
		t.Fatalf("unmasked product: mono=%d closure=%d, want 1/0", mono, closure)
	}
	ck(StopTrace())

	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var got [][2]string
	for _, ev := range tr.TraceEvents {
		if ev.Cat == "kernel" && ev.Name == "MxM" {
			route, _ := ev.Args["route"].(string)
			why, _ := ev.Args["route_reason"].(string)
			got = append(got, [2]string{route, why})
		}
	}
	want := [][2]string{{"auto(dense)", "mask nnz <= range flops"}, {"auto(dense)+mono", "work >= width/2"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("MxM kernel events (route, route_reason) = %q, want %q", got, want)
	}
}
