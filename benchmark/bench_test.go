package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
)

func TestMain(m *testing.M) {
	must(grb.Init(grb.NonBlocking))
	os.Exit(m.Run())
}

// tiny shrinks a workload to a graph of 64 vertices and a handful of ops.
func tiny(def workloadDef) workloadDef {
	def.sz.scale = 6
	if def.sz.scale2 > 0 {
		def.sz.scale2 = 5
	}
	def.sz.setups = 1
	def.sz.checkEach = 2
	def.sz.ladderOps = 1
	if def.sz.setElems > 0 {
		def.sz.setElems = 20
	}
	return def
}

// benchmarkJSON is the contract's schema, decoded strictly.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	once := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; spec.go has %d, %d and %d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		once(w.Name)
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %q %q", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	setup := false
	for i, m := range endToEnd {
		once(m.Name)
		j := b.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go %+v", i, j, m)
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %q: bad unit, bound or direction: %+v", m.Name, m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range perLayer {
		once(m.Name)
		j := b.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go %+v", i, j, m)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", b.Paths, b.RunSeconds)
	}
}

// emitted parses a result's JSON line and checks that it carries exactly
// the metrics in defs, each once, each with its unit and a finite value.
func emitted(t *testing.T, res result, defs []metricDef, nonZero bool) {
	t.Helper()
	var line struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(jsonLine(res, defs)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d first failure: %v", res.workload, line.Correct, line.Attempted, line.Failed, res.firstErr)
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics on the line, %d defined", res.workload, len(line.Metrics), len(defs))
	}
	for name := range res.metrics {
		if _, ok := line.Metrics[name]; !ok {
			t.Errorf("%s: measured %q, which no table defines", res.workload, name)
		}
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
			t.Errorf("%s: metric %q missing, without unit %q, or not finite: %+v", res.workload, d.Name, d.Unit, m)
			continue
		}
		if nonZero && *m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %q is %g; it must never be 0", res.workload, d.Name, *m.Value)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a tiny size.
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		def := tiny(def)
		t.Run(def.Name, func(t *testing.T) {
			emitted(t, runUntraced(def, 3, 0.2), endToEnd, true)

			spans := filepath.Join(t.TempDir(), "spans.json")
			res := runTraced(def, 3, 0.2, spans)
			emitted(t, res, perLayer, false)
			data, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var got []span
			if err := json.Unmarshal(data, &got); err != nil || len(got) == 0 {
				t.Fatalf("span file: %d spans, %v", len(got), err)
			}
			byID := map[int]span{}
			for _, s := range got {
				byID[s.ID] = s
			}
			for _, s := range got {
				if s.EndNs < s.StartNs || s.Name == "" || s.Layer == "" {
					t.Fatalf("malformed span %+v", s)
				}
				if p, ok := byID[s.Parent]; s.Parent != 0 && (!ok || p.OpID != s.OpID) {
					t.Fatalf("span %+v: parent %+v is missing or belongs to another op", s, p)
				}
			}
			if res.metrics["sparse.kernel_us"] <= 0 || res.metrics["grb.ops_per_query"] <= 0 {
				t.Errorf("kernel depth or metrics sink measured nothing: %v", res.metrics)
			}
		})
	}
}

// TestKernelDepthDoesTheSameWork holds the kernel depth's replays to the
// oracles: a replay that did different work would make the grb layer's
// self-time meaningless.
func TestKernelDepthDoesTheSameWork(t *testing.T) {
	g := genRMAT(7, true)
	g.index()
	ctx := must1(grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(libThreads)))
	pattern, weights := buildMatrices(g, ctx, true, true)
	k := newKernelGraph(pattern, weights, libThreads)
	for _, src := range g.sources(8, rand.New(rand.NewSource(1))) {
		want := g.bfsOracle(src)
		depth, reached := 0, 0
		for _, l := range want {
			if l >= 0 {
				reached++
			}
			if l+1 > depth {
				depth = l + 1
			}
		}
		if levels, got := k.bfs(src); levels != depth || got != reached {
			t.Errorf("bfs src=%d: %d levels %d reached, oracle %d and %d", src, levels, got, depth, reached)
		}
		if got := k.sssp(src); got != reached {
			t.Errorf("sssp src=%d: %d reached, oracle %d", src, got, reached)
		}
		within := 0
		for _, l := range want {
			if l >= 0 && l <= egoHops {
				within++
			}
		}
		if got := k.ego(src, egoHops); got != within {
			t.Errorf("ego src=%d: %d reached, oracle %d", src, got, within)
		}
	}
	if got, want := k.triangles(lowerTriangle(k.pat)), g.triangleOracle(); got != want {
		t.Errorf("triangles: %d, oracle %d", got, want)
	}
	if got, want := k.square(), g.squareNnzOracle(); got != want {
		t.Errorf("A*A: %d entries, oracle %d", got, want)
	}
}

func TestOraclesOnKnownGraphs(t *testing.T) {
	k4 := &inputGraph{Graph: gen.CompleteBipartite(2, 2).Symmetrize()} // a 4-cycle
	k4.W = gen.UniformWeights(k4.Graph, 1, 2, weightSeed)
	k4.index()
	if got := k4.triangleOracle(); got != 0 {
		t.Errorf("4-cycle has %d triangles", got)
	}
	if got := k4.squareNnzOracle(); got != 8 {
		t.Errorf("4-cycle squared has %d entries, want 8", got)
	}
	path := &inputGraph{Graph: gen.Path(5)}
	path.W = []float64{1, 2, 3, 4}
	path.index()
	if got := path.bfsOracle(1); got[0] != -1 || got[4] != 3 {
		t.Errorf("path BFS from 1: %v", got)
	}
	if got := path.dijkstraOracle(0); got[4] != 10 || got[2] != 3 {
		t.Errorf("path distances: %v", got)
	}
	if err := path.checkEgo(0, 2, []int{0, 1, 2}, 2); err != nil {
		t.Error(err)
	}
	if err := path.checkLevels(1, []int{1, 2, 3}, []int{0, 1, 2}); err == nil {
		t.Error("a level vector missing a reachable vertex passed")
	}
	if err := checkRanks(10, 10, []float64{0.25, 0.75 + 1e-6}); err == nil {
		t.Error("ranks that do not sum to 1 passed")
	}
}

// The tail rule: the highest percentile with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{2400, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}} {
		if got := highestSupportedTail(c.n); got != c.want {
			t.Errorf("%d samples: p%g, want p%g", c.n, got, c.want)
		}
	}
	if got := samplesBeyond(500, 95); got != 25 {
		t.Errorf("samplesBeyond(500, 95) = %d", got)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 10: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

// Typical timings: per distinct operation the lower quartile of its repeats.
func TestTypicalPerOp(t *testing.T) {
	var samples []opSample
	for i := 0; i < 36; i++ { // 3 distinct ops of 10, 20, 30 ms, 12 repeats each
		base := float64(10 * (1 + i%3))
		s := opSample{op: i, elapsedMs: base, cpuMs: 2 * base}
		if i/3 >= 4 {
			s.elapsedMs = 5 * base // the host took the CPU away during 8 repeats of 12
		}
		samples = append(samples, s)
	}
	if got := typicalPerOp(samples, 3, elapsedOf); len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("lower quartiles of 12 repeats, 8 of them disturbed: %v", got)
	}
	if got := typicalPerOp(samples, 3, cpuOf); mean(got) != 40 || median(got) != 40 {
		t.Errorf("CPU lower quartiles: %v", got)
	}
	if got := typical([]float64{9, 1, 5, 3}); got != 1 {
		t.Errorf("lower quartile of four readings: %g", got)
	}
	// Operations that never ran are left out.
	if got := typicalPerOp(samples[:2], 5, elapsedOf); len(got) != 2 {
		t.Errorf("2 samples over 5 distinct ops gave %d values", len(got))
	}
}

// Scaling to the reference speed: an operation that ran while the host was
// half as fast took twice as long and reads the same; one interrupted
// yardstick reading among its neighbours changes nothing.
func TestAtReferenceSpeed(t *testing.T) {
	const iters = 1000
	ref := iters * yardRefNs / 1e6
	var samples []opSample
	for i := 0; i < 40; i++ {
		slow := 1.0
		if i >= 20 {
			slow = 2
		}
		samples = append(samples, opSample{op: i, elapsedMs: 10 * slow, cpuMs: 12 * slow, yardMs: ref * slow})
	}
	samples[7].yardMs *= 30
	atReferenceSpeed(samples, iters)
	for i, s := range samples {
		edge := i >= 20-yardWindow && i < 20+yardWindow // the window straddles the change of speed
		if !edge && (math.Abs(s.elapsedMs-10) > 1e-9 || math.Abs(s.cpuMs-12) > 1e-9) {
			t.Errorf("op %d reads %g ms, %g ms CPU at the reference speed", i, s.elapsedMs, s.cpuMs)
		}
	}
	if a, b := yardstick(1000), yardstick(1001); a == b || a != yardstick(1000) {
		t.Error("the yardstick does not do the same work every time")
	}
}

// The calling thread's CPU clock advances with computation and stands still
// through a sleep.
func TestThreadClock(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPUNow()
	time.Sleep(20 * time.Millisecond)
	slept := threadCPUNow() - t0
	x := 1.0
	for start := time.Now(); time.Since(start) < 20*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	spun := threadCPUNow() - t0 - slept
	if x == 0 || slept > int64(5*time.Millisecond) || spun < int64(5*time.Millisecond) {
		t.Errorf("thread CPU clock: %d ns over a 20 ms sleep, %d ns over a 20 ms spin", slept, spun)
	}
}

// Open loop: an arrival that waited for a busy caller is timed from when it
// was due; one that only the generator's timer held up is timed from when it
// was sent, and the hold-up is lag.
func TestOpenLoopAccounting(t *testing.T) {
	s := openSchedule{start: time.Unix(100, 0), rate: 100}
	if due := s.due(7); due != s.start.Add(70*time.Millisecond) {
		t.Fatalf("arrival 7 due at %v", due)
	}
	at := func(ms float64) time.Time { return s.start.Add(time.Duration(ms * float64(time.Millisecond))) }
	// Taken at 60 ms, due at 70, sent at 71.5 (timer overshoot), done at 75.
	if lat, lag := s.account(7, at(60), at(71.5), at(75)); lat != 3.5 || lag != 1500 {
		t.Errorf("timer overshoot: latency %g ms lag %g us", lat, lag)
	}
	// Taken at 90 ms because every caller was busy: 20 ms of queueing count.
	if lat, lag := s.account(7, at(90), at(90), at(94)); lat != 24 || lag != 0 {
		t.Errorf("busy callers: latency %g ms lag %g us", lat, lag)
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes([]float64{10, 8, 5, 4, 1})
	want := []float64{2, 3, 1, 3, 1}
	sum := 0.0
	for d := range want {
		sum += got[d]
		if got[d] != want[d] {
			t.Errorf("depth %d: self %g, want %g", d, got[d], want[d])
		}
	}
	if sum != 10 {
		t.Errorf("self-times sum to %g, not to the top depth's 10", sum)
	}
	// A library workload has no http and handler depths.
	got = selfTimes([]float64{0, 0, 7, 6, 2})
	for d, w := range []float64{0, 0, 1, 4, 2} {
		if got[d] != w {
			t.Errorf("missing depths: depth %d self %g, want %g", d, got[d], w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	outer, _ := tr.time("algo", "grb", 4, 0, func(id int) {
		tr.time("lagraph.bfs", "lagraph", 4, id, func(int) {})
	})
	if len(tr.spans) != 2 || tr.spans[1].Parent != outer || tr.spans[0].EndNs < tr.spans[1].EndNs {
		t.Errorf("spans %+v", tr.spans)
	}
	var none *tracer
	if id, _ := none.time("x", "y", 0, 0, func(int) {}); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
}
