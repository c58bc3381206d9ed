package lagraph

import (
	"bytes"
	"encoding/json"
	"testing"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
)

// kernelThreads runs f under a trace session and returns the workers each
// kernel event reports ("threads"), by operation name.
func kernelThreads(t *testing.T, f func()) map[string][]int {
	t.Helper()
	var buf bytes.Buffer
	if err := grb.TraceTo(&buf); err != nil {
		t.Skipf("another trace session owns the events: %v", err)
	}
	f()
	ck(grb.StopTrace())
	var tr struct {
		TraceEvents []struct {
			Name, Cat string
			Args      struct{ Threads int }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	out := map[string][]int{}
	for _, ev := range tr.TraceEvents {
		if ev.Cat == "kernel" {
			out[ev.Name] = append(out[ev.Name], ev.Args.Threads)
		}
	}
	return out
}

// TestSmallQueryRunsInline pins what the serving workload stands on: in a
// two-thread context at the default chunk the four query kinds over rmat-10
// (12 040 entries, a fraction of one chunk) run every kernel on the calling
// goroutine — each op event reports one worker, and a query allocates exactly
// what it does in a one-thread context: no second SPA, no stitch, no
// goroutine. The second thread is still there for a section that can use it:
// in the same context the pull of a PageRank iteration over rmat-16 (955 k
// entries) reports two.
func TestSmallQueryRunsInline(t *testing.T) {
	initLib(t)
	load := func(scale int) (*grb.Matrix[bool], *grb.Matrix[float64]) {
		g := gen.Graph500RMAT(scale, 8, 42).Symmetrize()
		pat, wgt := adjacency(t, g), weighted(t, g, gen.UniformWeights(g, 1, 2, 7))
		ck(pat.Wait(grb.Materialize))
		ck(wgt.Wait(grb.Materialize))
		return pat, wgt
	}
	pat, wgt := load(10)
	queries := func(threads int) func() {
		ctx := ck1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(threads)))
		p, w := ck1(pat.ViewInContext(ctx)), ck1(wgt.ViewInContext(ctx))
		return func() {
			ck(ck1(BFSLevels(p, 1)).Free())
			ck(ck1(SSSP(w, 1)).Free())
			ck(ck1(PageRank(w, 0.85, 0, 10)).Ranks.Free())
			sub, _ := ck2(EgoNet(w, 1, 2))
			ck(sub.Free())
		}
	}
	one, two := queries(1), queries(2)
	one() // the transposes are cached on the shared snapshots
	events := 0
	for op, workers := range kernelThreads(t, two) {
		for _, n := range workers {
			if events++; n != 1 {
				t.Errorf("%s over rmat-10 ran on %d workers in a two-thread context, want 1", op, n)
			}
		}
	}
	if events < 50 {
		t.Fatalf("the four queries emitted %d kernel events", events)
	}
	// The fewest of five runs: the runtime's own background allocations (the
	// race detector's, a timer's) land on a run now and then.
	allocs := func(f func()) float64 {
		least := testing.AllocsPerRun(1, f)
		for i := 0; i < 4; i++ {
			least = min(least, testing.AllocsPerRun(1, f))
		}
		return least
	}
	if a1, a2 := allocs(one), allocs(two); a1 != a2 {
		t.Errorf("the queries allocate %v times in a two-thread context, %v in a one-thread one", a2, a1)
	}

	_, big := load(16)
	ctx := ck1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(2)))
	w := ck1(big.ViewInContext(ctx))
	pulls := kernelThreads(t, func() { ck(ranksRead(ck1(PageRank(w, 0.85, 0, 1))).Free()) })["VxM"]
	if len(pulls) != 1 || pulls[0] != 2 {
		t.Errorf("the pull of a PageRank iteration over rmat-16 reports workers %v, want [2]", pulls)
	}
}
