package grb

import (
	"fmt"
	"strings"
	"testing"

	"github.com/grblas/grb/internal/faults"
)

// The chaos differential suite: every registered fault-injection site is
// swept with both failure shapes (simulated allocation failure and simulated
// kernel panic), against an operation battery that reaches every site. The
// contract under any injected fault is the §V one — the process never
// crashes, the failure surfaces as a parked execution error through
// Wait(Materialize) with a non-empty ErrorString, and the victim object
// stays a valid (sticky-error) object. Run with -tags grbcheck, the chaos CI
// tier additionally validates every intermediate snapshot.

// opOutcome records one battery operation's surfaced error.
type opOutcome struct {
	op      string
	err     error // call error or parked error from Wait(Materialize)
	errText string
}

// chaosInputs builds and fully materializes the battery inputs so that
// injection (armed afterwards) hits only the operations under test.
func chaosInputs(t *testing.T) (*Matrix[float64], *Vector[float64]) {
	t.Helper()
	var is, js []Index
	var xs []float64
	for i := 0; i < 16; i++ {
		is = append(is, Index(i), Index(i))
		js = append(js, Index((i+1)%16), Index((i*5+2)%16))
		xs = append(xs, float64(i+1), float64(i+2))
	}
	a, err := NewMatrix[float64](16, 16)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if err := a.Build(is, js, xs, Second[float64, float64]); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := a.Wait(Materialize); err != nil {
		t.Fatalf("materialize input: %v", err)
	}
	u, err := NewVector[float64](16)
	if err != nil {
		t.Fatalf("NewVector: %v", err)
	}
	// One entry short of full: a full operand is its own block view, and the
	// battery's pulls must cross the gather and format-conversion sites.
	for i := 1; i < 16; i++ {
		if err := u.SetElement(float64(i+1), Index(i)); err != nil {
			t.Fatalf("SetElement: %v", err)
		}
	}
	if err := u.Wait(Materialize); err != nil {
		t.Fatalf("materialize input: %v", err)
	}
	return a, u
}

// runHardenedBattery drives one operation through every hardened site:
// tuple merge, both SpGEMM accumulators, the transpose builder, both SpMV
// gather buffers, the push-side SPA, the per-range checkpoint, and the
// monomorphized fast paths (loop entry, scatter SPA, block-format
// conversion). Inputs
// must be pre-materialized. Every op is drained with Wait(Materialize)
// immediately, so injection points fire deterministically in battery order.
func runHardenedBattery(t *testing.T, a *Matrix[float64], u *Vector[float64]) []opOutcome {
	t.Helper()
	var outs []opOutcome
	record := func(op string, callErr, waitErr error, errText string) {
		err := callErr
		if err == nil {
			err = waitErr
		}
		outs = append(outs, opOutcome{op: op, err: err, errText: errText})
	}

	// sparse.merge.tuples — deferred setElement merge.
	m, err := NewMatrix[float64](16, 16)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	callErr := m.SetElement(3.5, 2, 2)
	record("merge", callErr, m.Wait(Materialize), m.ErrorString())

	// sparse.spgemm.spa + sparse.kernel.range — dense-accumulator MxM.
	// The closure-kernel sites need SpecGeneric: PlusTimes[float64] would
	// otherwise route to the monomorphized kernels, whose own sites the
	// mono ops below cover.
	mxm := func(op string, desc *Descriptor) {
		c, err := NewMatrix[float64](16, 16)
		if err != nil {
			t.Fatalf("NewMatrix: %v", err)
		}
		callErr := MxM(c, nil, nil, PlusTimes[float64](), a, a, desc)
		record(op, callErr, c.Wait(Materialize), c.ErrorString())
	}
	mxm("mxm-dense", &Descriptor{AxB: AxBDenseSPA, Spec: SpecGeneric})
	// sparse.spgemm.hash — hash-accumulator MxM.
	mxm("mxm-hash", DescHashSPA)
	// sparse.transpose.build — transposed input.
	mxm("mxm-transpose", &Descriptor{Transpose0: true})
	// sparse.mono.loop + sparse.mono.spa — monomorphized dense-SPA MxM.
	mxm("mxm-mono", &Descriptor{AxB: AxBDenseSPA, Spec: SpecMono})

	mxv := func(op string, desc *Descriptor) {
		w, err := NewVector[float64](16)
		if err != nil {
			t.Fatalf("NewVector: %v", err)
		}
		callErr := MxV(w, nil, nil, PlusTimes[float64](), a, u, desc)
		record(op, callErr, w.Wait(Materialize), w.ErrorString())
	}
	// sparse.spmv.gather — pinned pull with the dense gather buffer.
	mxv("mxv-pull-dense", &Descriptor{Dir: DirPull, AxB: AxBDenseSPA, Spec: SpecGeneric})
	// sparse.spmv.hash — pinned pull with the hash gather buffer.
	mxv("mxv-pull-hash", &Descriptor{Dir: DirPull, AxB: AxBHashSPA})
	// sparse.vxm.spa — pinned push (also crosses sparse.transpose.build).
	mxv("mxv-push", &Descriptor{Dir: DirPush, Spec: SpecGeneric})
	// sparse.format.convert + sparse.mono.loop — monomorphized pull through
	// the frontier's block view. The view caches on the vector snapshot, so
	// the convert site checks once per fresh input (the sweep rebuilds
	// inputs per point).
	mxv("mxv-pull-mono", &Descriptor{Dir: DirPull, Spec: SpecMono})
	// sparse.mono.spa — monomorphized push scatter.
	mxv("mxv-push-mono", &Descriptor{Dir: DirPush, Spec: SpecMono})

	return outs
}

// sweepPoint arms one site × action at its first hit, runs the battery on
// fresh inputs (the transpose cache lives on an input's snapshot, and a hit
// cached by a previous point would mask the transpose site's Check) and
// returns what is wrong with the outcome: nothing, when the fault surfaced
// as a well-formed parked execution error with the wanted code.
func sweepPoint(t *testing.T, site string, action faults.Action, want Info) []string {
	t.Helper()
	a, u := chaosInputs(t)
	faults.Enable(faults.Rule{Site: site, Action: action, Hit: 1})
	defer faults.Disable()
	var wrong []string
	hit := 0
	for _, o := range runHardenedBattery(t, a, u) {
		if o.err == nil {
			continue
		}
		hit++
		if Code(o.err) != want {
			wrong = append(wrong, fmt.Sprintf("%s: code = %v (%v), want %v", o.op, Code(o.err), o.err, want))
		}
		if !Code(o.err).IsExecutionError() {
			wrong = append(wrong, fmt.Sprintf("%s: %v is not an execution error", o.op, Code(o.err)))
		}
		if o.errText == "" {
			wrong = append(wrong, fmt.Sprintf("%s: parked error has empty ErrorString", o.op))
		}
	}
	if hit == 0 {
		wrong = append(wrong, fmt.Sprintf("site %s never fired: battery does not cover it", site))
	}
	return wrong
}

// TestChaosSweepAllSitesAllActions is the fault sweep of the acceptance
// criteria: every site in the registry × {alloc-failure, panic} must surface
// as a well-formed parked execution error with the right Info code. Ranging
// over faults.Sites() makes the sweep the dead-site check too: a site that
// is registered but that no kernel probes, or that the battery does not
// reach, never fires and fails its two points.
func TestChaosSweepAllSitesAllActions(t *testing.T) {
	setMode(t, NonBlocking)
	cases := []struct {
		action faults.Action
		want   Info
	}{
		{faults.AllocFail, OutOfMemory},
		{faults.Panic, Panic},
	}
	for _, site := range faults.Sites() {
		for _, tc := range cases {
			t.Run(site+"/"+tc.action.String(), func(t *testing.T) {
				for _, w := range sweepPoint(t, site, tc.action, tc.want) {
					t.Error(w)
				}
			})
		}
	}
}

// TestChaosSweepFailsOnUnprobedSite shows the sweep's dead-site assertion is
// live: a point whose site nothing probes comes back "never fired". The name
// is not registered here — the registry is process-wide and has no removal,
// so a site registered by a test would join the sweep above on a second
// -count run — and to sweepPoint a name out of faults.Sites() is only a name.
func TestChaosSweepFailsOnUnprobedSite(t *testing.T) {
	setMode(t, NonBlocking)
	wrong := sweepPoint(t, "chaos.unprobed", faults.AllocFail, OutOfMemory)
	if len(wrong) != 1 || !strings.Contains(wrong[0], "site chaos.unprobed never fired") {
		t.Fatalf("sweep point over an unprobed site reported %q, want one \"never fired\"", wrong)
	}
}

// TestScatteredChaosNeverCrashes is the scattered mode: pseudo-random but
// reproducible faults over every site while the battery runs repeatedly.
// Any surfaced error must be a well-formed execution error; the process must
// survive every seed.
func TestScatteredChaosNeverCrashes(t *testing.T) {
	setMode(t, NonBlocking)
	a, u := chaosInputs(t)
	for seed := int64(1); seed <= 5; seed++ {
		faults.EnableSeeded(seed,
			faults.Rule{Site: "*", Action: faults.AllocFail, OneIn: 5},
			faults.Rule{Site: "*", Action: faults.Panic, OneIn: 7},
		)
		for round := 0; round < 3; round++ {
			for _, o := range runHardenedBattery(t, a, u) {
				if o.err == nil {
					continue
				}
				if c := Code(o.err); !c.IsExecutionError() {
					t.Fatalf("seed %d %s: non-execution error %v (%v)", seed, o.op, c, o.err)
				}
				if o.errText == "" {
					t.Fatalf("seed %d %s: empty ErrorString for %v", seed, o.op, o.err)
				}
			}
		}
		faults.Disable()
	}
	// With injection disarmed the library is fully healthy again.
	c, err := NewMatrix[float64](16, 16)
	if err != nil {
		t.Fatalf("NewMatrix after chaos: %v", err)
	}
	if err := MxM(c, nil, nil, PlusTimes[float64](), a, a, nil); err != nil {
		t.Fatalf("MxM after chaos: %v", err)
	}
	if err := c.Wait(Materialize); err != nil {
		t.Fatalf("Wait after chaos: %v", err)
	}
}

// TestFaultSpecArming covers the GRB_FAULTS env arming path through Init:
// a bad spec fails Init cleanly, a good spec injects, and unsetting restores
// the fast path.
func TestFaultSpecArming(t *testing.T) {
	t.Setenv("GRB_FAULTS", "not a spec")
	reset()
	if err := Init(NonBlocking); Code(err) != InvalidValue {
		t.Fatalf("Init with bad GRB_FAULTS: err = %v, want InvalidValue", err)
	}
	t.Setenv("GRB_FAULTS", "sparse.merge.tuples:alloc@1")
	if err := Init(NonBlocking); err != nil {
		t.Fatalf("Init with valid GRB_FAULTS: %v", err)
	}
	t.Cleanup(func() {
		faults.Disable()
		_ = Finalize() //grblint:ignore infocheck -- best-effort teardown
	})
	m, err := NewMatrix[int](4, 4)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if err := m.SetElement(1, 0, 0); err != nil {
		t.Fatalf("SetElement: %v", err)
	}
	if err := m.Wait(Materialize); Code(err) != OutOfMemory {
		t.Fatalf("env-armed injection: err = %v, want OutOfMemory", err)
	}
}
