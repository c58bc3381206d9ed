package grb_test

// The pull gather is costed by what the hash table would be asked to do
// (plan.go, planPull), not by the frontier's density: a traversal of a graph
// with nnz ≫ n never hash-gathers, however sparse its frontier, while a pull
// over a hypersparse matrix still does. Read off the kernel events.

import (
	"bytes"
	"encoding/json"
	"testing"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
	"github.com/grblas/grb/lagraph"
)

// pullGathers runs f under a trace session and returns, over the kernel
// events of the matrix-vector products that pulled, how many there were and
// how many of them gathered through the hash table.
func pullGathers(t *testing.T, f func()) (pulls, hashed int) {
	t.Helper()
	var buf bytes.Buffer
	ck(grb.TraceTo(&buf))
	f()
	ck(grb.StopTrace())
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
	for _, ev := range tr.TraceEvents {
		if ev.Cat != "kernel" || (ev.Name != "VxM" && ev.Name != "MxV") {
			continue
		}
		if n, _ := ev.Args["pull_calls"].(float64); n == 0 {
			continue
		}
		pulls++
		if n, _ := ev.Args["hash_ranges"].(float64); n > 0 {
			hashed++
		}
	}
	return pulls, hashed
}

func TestTraversalPullsNeverHashGather(t *testing.T) {
	initNonblocking(t)
	g := gen.Graph500RMAT(12, 16, 7).Dedup()
	pattern := ck1(grb.NewMatrix[bool](g.N, g.N))
	ck(pattern.Build(g.Src, g.Dst, gen.BoolWeights(g), grb.LOr))
	weights := ck1(grb.NewMatrix[float64](g.N, g.N))
	ck(weights.Build(g.Src, g.Dst, gen.UniformWeights(g, 0.5, 2, 7), grb.Plus[float64]))
	src := g.Src[0]
	// SSSP's rounds are unmasked products over non-full frontiers, which the
	// direction rule pushes on this graph; the same rounds pinned to the pull
	// (lagraph.SSSP's, DescPull on the product) are the pulls they would be.
	ssspPulled := func() {
		d := ck1(grb.NewVector[float64](g.N))
		ck(d.SetElement(0, src))
		f, kept := ck1(d.Dup()), ck1(grb.NewVector[bool](g.N))
		notBelow := func(x, y float64) bool { return !(x < y) }
		for nf := 1; nf > 0; nf = ck1(f.Nvals()) {
			ck(grb.VxM(f, nil, nil, grb.MinPlus[float64](), f, weights, grb.DescPull))
			ck(grb.EWiseMultVector(kept, nil, nil, notBelow, f, d, nil))
			ck(grb.VectorAssign(f, kept, nil, f, grb.All, grb.DescRC))
			ck(grb.EWiseAddVector(d, nil, nil, grb.Min[float64], d, f, nil))
		}
		ck(d.Wait(grb.Materialize))
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"BFS", func() { ck(ck1(lagraph.BFSLevels(pattern, src)).Wait(grb.Materialize)) }},
		{"SSSP rounds pulled", ssspPulled},
	} {
		pulls, hashed := pullGathers(t, tc.run)
		if pulls == 0 || hashed != 0 {
			t.Errorf("%s on rmat-12: %d pulls, %d of them through the hash gather; want some pulls and no hash gather",
				tc.name, pulls, hashed)
		}
	}

	// The hypersparse product of BenchmarkHypersparse_MxV, scaled down: the
	// whole matrix holds fewer entries than half the vector's size.
	h := gen.Hypersparse(1<<16, 20_000, 1234)
	a := ck1(grb.NewMatrix[float64](h.N, h.N))
	ck(a.Build(h.Src, h.Dst, gen.UniformWeights(h, 0.5, 2, 99), grb.Plus[float64]))
	u := ck1(grb.NewVector[float64](h.N))
	for k := 0; k < 64; k++ {
		ck(u.SetElement(1, k*(h.N/64)))
	}
	pulls, hashed := pullGathers(t, func() {
		w := ck1(grb.NewVector[float64](h.N))
		ck(grb.MxV(w, nil, nil, grb.PlusTimes[float64](), a, u, grb.DescPull))
		ck(w.Wait(grb.Materialize))
	})
	if pulls != 1 || hashed != 1 {
		t.Errorf("hypersparse MxV: %d pulls, %d through the hash gather; want 1 and 1", pulls, hashed)
	}
}
