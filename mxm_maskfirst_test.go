package grb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// TestMxMMaskedWriteBack: masked MxM over accumulator × replace × empty or
// stored C × every mask reading, through the dense SPA (mask-first or not)
// and the hash SPA, is the program generator's (progen_test.go).
func TestMxMMaskedWriteBack(t *testing.T) { matrixKit(t, kitInt, nil, gMxM) }

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
