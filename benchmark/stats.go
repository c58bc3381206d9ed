package main

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// samplesBeyond is the number of samples strictly above the p-th
// percentile's rank: the evidence a tail percentile rests on.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// highestSupportedTail applies the rule "the highest percentile with at
// least ten samples beyond it", stepping down p99, p95, p90, p75; 50 when
// even p75 has fewer.
func highestSupportedTail(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// opSample is one completed operation of the closed-loop phase: which of
// the schedule's operations it repeated, how long it and the yardstick run
// before it took on the workload's stopwatch, how long it took on the wall
// clock, and the CPU time the whole process used meanwhile.
type opSample struct {
	op        int
	elapsedMs float64
	yardMs    float64
	wallMs    float64
	cpuMs     float64
}

// yardstick is a fixed piece of work: four independent integer chains, so
// that it is bound by what the core can issue and not by one chain's latency.
// The hosts this runs on change speed under a program: for seconds to minutes
// at a time everything that computes runs up to 1.6 times slower (a neighbour
// on the core's other hardware thread is the likely cause), and a loop bound
// by one dependency chain does not feel it while the program and this loop do.
// Timing the yardstick beside every operation tells how fast the host was
// just then.
func yardstick(iters int) uint64 {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < iters; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= b << 13
		b ^= b >> 7
		c = c*2862933555777941757 + 3037000493
		d ^= d << 17
		d ^= d >> 5
	}
	return a + b + c + d
}

// yardSink keeps the compiler from dropping the yardstick's work.
var yardSink atomic.Uint64

const (
	// yardRefNs is what one yardstick iteration takes on the sizing host at
	// full speed. Every reported time is scaled to that speed, so the figures
	// read as this host's at its best; the constant itself cancels out of any
	// comparison between two runs.
	yardRefNs = 1.85
	// yardWindow is how many yardstick readings on either side of an
	// operation's own its speed is the median of.
	yardWindow = 4
)

// slowdown is how many times slower than the reference speed the host ran
// around each reading: the median of the readings within yardWindow of it,
// over what that many iterations take at the reference speed.
func slowdown(yardMs []float64, iters int) []float64 {
	out := make([]float64, len(yardMs))
	for i := range yardMs {
		lo, hi := max(0, i-yardWindow), min(len(yardMs), i+yardWindow+1)
		out[i] = median(yardMs[lo:hi]) / (float64(iters) * yardRefNs / 1e6)
	}
	return out
}

// atReferenceSpeed divides every operation's elapsed and CPU time by the
// host's slowdown around it.
func atReferenceSpeed(samples []opSample, iters int) {
	for i, slow := range slowdown(valuesOf(samples, yardOf), iters) {
		samples[i].elapsedMs /= slow
		samples[i].cpuMs /= slow
	}
}

// typical is the lower quartile of the readings of one thing measured
// repeatedly. Once scaled to the reference speed, what still differs between
// repeats is the host interrupting some of them (a vCPU taken away for 1 to
// 30 ms, during up to half of the repeats of a 1 ms query when it is at its
// worst), which only ever adds time; the lower quartile stays among the
// repeats that were left alone until three in four are not.
func typical(readings []float64) float64 { return percentile(sortedCopy(readings), 25) }

// typicalPerOp reduces a closed-loop phase to one value per distinct
// operation of the schedule: the typical one of that operation's repeats,
// which the schedule spreads over the whole run. What differs between
// operations (a query from a hub, a query from a leaf) is kept.
func typicalPerOp(samples []opSample, distinct int, value func(opSample) float64) []float64 {
	repeats := make([][]float64, distinct)
	for _, s := range samples {
		repeats[s.op%distinct] = append(repeats[s.op%distinct], value(s))
	}
	out := make([]float64, 0, distinct)
	for _, r := range repeats {
		if len(r) > 0 {
			out = append(out, typical(r))
		}
	}
	return out
}

func elapsedOf(s opSample) float64 { return s.elapsedMs }
func cpuOf(s opSample) float64     { return s.cpuMs }
func wallOf(s opSample) float64    { return s.wallMs }
func yardOf(s opSample) float64    { return s.yardMs }

func valuesOf(samples []opSample, value func(opSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = value(s)
	}
	return out
}

// openSchedule is the arrival schedule of an open-loop phase: arrival i is
// due at start + i/rate, whatever happened to the arrivals before it.
type openSchedule struct {
	start time.Time
	rate  float64
}

func (s openSchedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
}

// account turns one arrival's instants into its latency and the generator's
// lateness. picked is when a caller took the arrival off the schedule, sent
// when it went out, done when the reply was read. An arrival taken after it
// was due waited for a caller that the program kept busy, so its latency
// runs from the due time and charges that wait to the program. An arrival
// taken early and sent late was held up only by the generator's own timer
// (Go sleeps overshoot by about a millisecond on the sizing host, as long as
// a whole small query), so its latency runs from the send and the overshoot
// is reported as lag instead.
func (s openSchedule) account(i int, picked, sent, done time.Time) (latencyMs, lagUs float64) {
	due := s.due(i)
	if picked.After(due) {
		return float64(done.Sub(due)) / 1e6, 0
	}
	return float64(done.Sub(sent)) / 1e6, float64(sent.Sub(due)) / 1e3
}

// usage is a reading of the process-wide cost counters.
type usage struct {
	wall    time.Time
	cpuNs   int64
	mallocs uint64
	bytes   uint64
}

// The kernel's CPU clocks. They stand still while the hypervisor has the
// vCPU (measured on the sizing host: process CPU time plus the steal time in
// /proc/stat stays constant while their split swings from 16:1 to 1:1).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		must(errno)
	}
	return ts.Nano()
}

// cpuNow is the CPU time, user plus system, the process has used.
func cpuNow() int64 { return cpuClock(clockProcessCPU) }

// threadCPUNow is the CPU time the calling thread has used. For a caller that
// is locked to its thread and only computes, it is a stopwatch that stops
// while the host has the CPU.
func threadCPUNow() int64 { return cpuClock(clockThreadCPU) }

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpuNs: cpuNow(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// cost is what a phase consumed between two usage readings.
type cost struct {
	wallS   float64
	cpuMs   float64
	mallocs float64
	kb      float64
}

func (u usage) since(before usage) cost {
	return cost{
		wallS:   u.wall.Sub(before.wall).Seconds(),
		cpuMs:   float64(u.cpuNs-before.cpuNs) / 1e6,
		mallocs: float64(u.mallocs - before.mallocs),
		kb:      float64(u.bytes-before.bytes) / 1024,
	}
}

func (c cost) plus(b cost) cost {
	return cost{c.wallS + b.wallS, c.cpuMs + b.cpuMs, c.mallocs + b.mallocs, c.kb + b.kb}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
