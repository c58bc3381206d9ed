package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one set of inputs plus the program state that serves them.
// Everything the program sees comes from the seed given to the constructor.
type workload interface {
	// setup generates the inputs and brings the program to the point where
	// the first measured operation can run: generation, build or load,
	// server start, and a warm-up pass. It is the timed part of setup_s.
	setup()
	// prepare builds the oracles. It is the benchmark's own work and is
	// not timed.
	prepare()
	// op runs the i-th operation of the seeded schedule for caller c.
	// Results that the oracles will look at are retained, not checked, so
	// that checking never runs beside a timed operation.
	op(c, i int)
	// check runs the oracles over the retained results.
	check()
	// ladder describes the traced run's depths for this workload.
	ladder() ladder
	// tally reports operations attempted, shed and failed so far.
	tally() *tally
	// describe names the inputs for the run header.
	describe() string
	// close stops everything setup started and waits for it to end.
	close()
}

// tally counts outcomes. A shed or failed operation, or a result an oracle
// rejects, counts against failed_share.
type tally struct {
	attempted atomic.Int64
	shed      atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	firstErr  error
}

func (t *tally) fail(err error) {
	t.failed.Add(1)
	t.mu.Lock()
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.mu.Unlock()
}

func (t *tally) bad() int64 { return t.shed.Load() + t.failed.Load() }

// result is what one run prints.
type result struct {
	workload  string
	metrics   map[string]float64
	attempted int64
	failed    int64
	firstErr  error
	notes     []string
}

// stopwatchFor returns the clock a workload's measured phases are timed on,
// in nanoseconds. Where cpuClock says that the workload only computes on the
// calling thread, that is the thread's CPU clock, which stands still while
// the host has the vCPU; the caller must then stay locked to its thread.
// Elsewhere it is the wall clock.
func stopwatchFor(cpuClock bool) func() int64 {
	if cpuClock {
		return threadCPUNow
	}
	epoch := time.Now()
	return func() int64 { return int64(time.Since(epoch)) }
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// timedSetups sets the workload up sz.setups times and returns the last
// instance, ready to measure, with the typical set-up time: each set-up is
// timed on the workload's stopwatch and scaled to the reference speed by
// yardstick readings taken just before and just after it.
func timedSetups(def workloadDef, seed int64) (workload, float64) {
	if def.sz.cpuClock {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	stopwatch := stopwatchFor(def.sz.cpuClock)
	const iters, readings = 1_000_000, 3
	yard := func() (out []float64) {
		for r := 0; r < readings; r++ {
			t0 := stopwatch()
			yardSink.Add(yardstick(iters))
			out = append(out, ms(stopwatch()-t0))
		}
		return out
	}
	var w workload
	times := make([]float64, 0, def.sz.setups)
	for r := 0; r < def.sz.setups; r++ {
		if w != nil {
			w.close()
		}
		w = def.new(seed, def.sz)
		around := yard()
		t0 := stopwatch()
		w.setup()
		took := ms(stopwatch()-t0) / 1e3
		around = append(around, yard()...)
		times = append(times, took/(median(around)/(iters*yardRefNs/1e6)))
	}
	return w, typical(times)
}

// openPhase sends arrivals on a fixed schedule for dur through at most
// `clients` connections: each caller takes the next arrival, waits until it
// is due, and sends it. When every caller is busy the arrival waits, and
// that wait is in its latency (see openSchedule.account).
func openPhase(w workload, clients int, rate float64, dur time.Duration, firstOp int) (latMs, lagUs []float64) {
	n := int(rate * dur.Seconds())
	latMs = make([]float64, n)
	lagUs = make([]float64, n)
	sched := openSchedule{start: time.Now(), rate: rate}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				picked := time.Now()
				time.Sleep(sched.due(i).Sub(picked))
				sent := time.Now()
				w.op(c, firstOp+i)
				latMs[i], lagUs[i] = sched.account(i, picked, sent, time.Now())
			}
		}(c)
	}
	wg.Wait()
	return latMs, lagUs
}

// closedPhase keeps one caller busy for dur: it sends its next operation when
// its previous one completes, after a run of the yardstick, both timed on the
// workload's stopwatch. It returns the operations and what the phase cost the
// process.
func closedPhase(w workload, dur time.Duration, cpuClock bool, yardIters int) ([]opSample, cost) {
	if cpuClock {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	stopwatch := stopwatchFor(cpuClock)
	samples := make([]opSample, 0, 1<<16)
	before := readUsage()
	for i := 0; time.Since(before.wall) < dur; i++ {
		y0 := stopwatch()
		yardSink.Add(yardstick(yardIters))
		t0, cpu0, wall0 := stopwatch(), cpuNow(), time.Now()
		w.op(0, i)
		samples = append(samples, opSample{op: i, elapsedMs: ms(stopwatch() - t0), yardMs: ms(t0 - y0),
			wallMs: ms(int64(time.Since(wall0))), cpuMs: ms(cpuNow() - cpu0)})
	}
	return samples, readUsage().since(before)
}

// runUntraced measures the end-to-end metrics of one workload with every
// sink and span off: one closed-loop phase, the timings scaled to the
// reference speed and taken per distinct operation (see yardstick and
// typicalPerOp), the allocations from the whole phase.
func runUntraced(def workloadDef, seed int64, seconds float64) result {
	w, setupS := timedSetups(def, seed)
	defer w.close()
	w.prepare()
	res := result{workload: def.Name, metrics: map[string]float64{"setup_s": setupS}}
	res.notes = append(res.notes, w.describe())

	sz := def.sz
	samples, c := closedPhase(w, time.Duration(seconds*float64(time.Second)), sz.cpuClock, sz.yardIters)
	w.check()

	// What the clocks saw over the whole phase, the host's part included.
	stopwatch := "wall clock"
	if sz.cpuClock {
		stopwatch = "calling thread's CPU clock"
	}
	ops := float64(len(samples))
	wall := sortedCopy(valuesOf(samples, wallOf))
	tail := highestSupportedTail(len(wall))
	slow := sortedCopy(slowdown(valuesOf(samples, yardOf), sz.yardIters))
	res.notes = append(res.notes,
		fmt.Sprintf("closed loop: %d ops (%d distinct) by 1 caller in %.2f s, timed on the %s; host slowdown against the reference speed p10 %.3f p50 %.3f p90 %.3f",
			len(samples), min(len(samples), sz.distinct), c.wallS, stopwatch, percentile(slow, 10), percentile(slow, 50), percentile(slow, 90)),
		fmt.Sprintf("whole phase as the wall clock saw it, yardstick included, not gated: %.4g op/s, p50 %.4g ms, p%g %.4g ms (%d samples beyond), process CPU %.4g ms/op",
			ops/c.wallS, percentile(wall, 50), tail, percentile(wall, tail), samplesBeyond(len(wall), tail), c.cpuMs/ops))

	atReferenceSpeed(samples, sz.yardIters)
	elapsed := typicalPerOp(samples, sz.distinct, elapsedOf)
	res.metrics["ops_per_s"] = ratio(1e3, mean(elapsed))
	res.metrics["op_p50_ms"] = median(elapsed)
	res.metrics["cpu_ms_per_op"] = mean(typicalPerOp(samples, sz.distinct, cpuOf))
	res.metrics["allocs_per_op"] = ratio(c.mallocs, ops)
	res.metrics["alloc_kb_per_op"] = ratio(c.kb, ops)

	t := w.tally()
	res.attempted, res.failed, res.firstErr = t.attempted.Load(), t.bad(), t.firstErr
	res.notes = append(res.notes, fmt.Sprintf("attempted %d ok %d shed %d failed %d failed_share %.6f",
		res.attempted, res.attempted-res.failed, t.shed.Load(), t.failed.Load(), ratio(float64(res.failed), float64(res.attempted))))
	return res
}

// printHuman writes a result's metrics, with units, to stderr; stdout
// carries only the JSON line.
func printHuman(res result, defs []metricDef) {
	fmt.Fprintf(os.Stderr, "== %s\n", res.workload)
	for _, n := range res.notes {
		fmt.Fprintf(os.Stderr, "   %s\n", n)
	}
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "   %-28s %14.4f %s\n", d.Name, res.metrics[d.Name], d.Unit)
	}
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "   first failure: %v\n", res.firstErr)
	}
}

// jsonLine renders the one-line result the driver reads: the metrics in
// defs, every digit as measured.
func jsonLine(res result, defs []metricDef) string {
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]metricOut{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricOut{res.metrics[d.Name], d.Unit}
	}
	return string(must1(json.Marshal(out)))
}
