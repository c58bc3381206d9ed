package grb

import (
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

// chaosBatterySites is the battery's site manifest: every fault-injection
// site the sweep must cover, kept sorted. sitecheck statically cross-checks
// this list against the faults.Register calls in non-test code, and
// TestChaosBatteryManifestMatchesRegistry pins it to the live registry so a
// new site cannot land without joining the sweep.
var chaosBatterySites = []string{
	"sparse.format.convert",
	"sparse.kernel.range",
	"sparse.merge.tuples",
	"sparse.mono.loop",
	"sparse.mono.spa",
	"sparse.spgemm.hash",
	"sparse.spgemm.spa",
	"sparse.spmv.gather",
	"sparse.spmv.hash",
	"sparse.transpose.build",
	"sparse.vxm.spa",
}

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
	for i := 0; i < 16; i++ {
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

// TestChaosSweepAllSitesAllActions is the fault sweep of the acceptance
// criteria: every registered site × {alloc-failure, panic} must surface as a
// well-formed parked execution error with the right Info code — and the
// sweep fails if a site is never reached by the battery (silent coverage
// loss) or if any outcome is malformed.
func TestChaosSweepAllSitesAllActions(t *testing.T) {
	setMode(t, NonBlocking)
	sites := chaosBatterySites
	cases := []struct {
		action faults.Action
		want   Info
	}{
		{faults.AllocFail, OutOfMemory},
		{faults.Panic, Panic},
	}
	for _, site := range sites {
		for _, tc := range cases {
			t.Run(site+"/"+tc.action.String(), func(t *testing.T) {
				// Fresh inputs per sweep point: the transpose cache lives on
				// an input's snapshot, and a hit cached by a previous sweep
				// point would mask the transpose site's Check.
				a, u := chaosInputs(t)
				faults.Enable(faults.Rule{Site: site, Action: tc.action, Hit: 1})
				defer faults.Disable()
				outs := runHardenedBattery(t, a, u)
				hit := 0
				for _, o := range outs {
					if o.err == nil {
						continue
					}
					hit++
					if Code(o.err) != tc.want {
						t.Errorf("%s: code = %v (%v), want %v", o.op, Code(o.err), o.err, tc.want)
					}
					if !Code(o.err).IsExecutionError() {
						t.Errorf("%s: %v is not an execution error", o.op, Code(o.err))
					}
					if o.errText == "" {
						t.Errorf("%s: parked error has empty ErrorString", o.op)
					}
				}
				if hit == 0 {
					t.Errorf("site %s never fired: battery does not cover it", site)
				}
			})
		}
	}
}

// TestChaosBatteryManifestMatchesRegistry pins the static site manifest to
// the live registry: a newly registered site must be added to
// chaosBatterySites (and thereby the sweep) before it can ship, and a stale
// manifest entry fails just as loudly. Both lists are sorted.
func TestChaosBatteryManifestMatchesRegistry(t *testing.T) {
	got := faults.Sites()
	if len(got) != len(chaosBatterySites) {
		t.Fatalf("registry has %d sites, manifest lists %d:\nregistry: %v\nmanifest: %v",
			len(got), len(chaosBatterySites), got, chaosBatterySites)
	}
	for i, name := range chaosBatterySites {
		if got[i] != name {
			t.Fatalf("manifest[%d] = %q, registry has %q", i, name, got[i])
		}
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
	_ = Finalize() //grblint:ignore infocheck -- reset idiom
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
