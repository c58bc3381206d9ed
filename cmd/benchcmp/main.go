// benchcmp diffs two grbbench traversal JSON files (the BENCH_*.json series
// written by -json / scripts/bench_baseline.sh) and fails when any measured
// (graph, dir) series slowed down by more than the tolerance:
//
//	benchcmp [-tol 15] baseline.json current.json
//
// Exit status 0 means every series is within tolerance; 1 means at least one
// regressed; 2 means the inputs could not be compared (missing file, no
// overlapping series). Series present in only one file are reported but do
// not fail the comparison — experiments come and go across PRs.
//
// -selftest runs the gate against itself: the baseline must pass unchanged,
// and a synthetic 20% slowdown of every series must be flagged at the default
// 15% tolerance. CI uses it to prove the gate can actually fire. Each ratio
// gate enabled alongside -selftest adds a pass/fire step pair of its own.
//
// -monomin R adds a paired-ratio gate on the current file (the baseline under
// -selftest): every graph carrying both a mono and a closure series — the
// dense experiment's kernel-tier A/B — must show closure/mono >= R, i.e. the
// monomorphized kernel at least R× faster than the closure kernel it
// replaces. 0 (the default) disables the gate.
//
// -servemax R adds the serving-latency gate: every (graph, dir) series
// present in BOTH files with measured latency percentiles (the serve
// experiment's serve-<algo>/{closed,open} series) must keep its current
// p50 and p99 within R× of the baseline's. Unlike the within-file ratio
// gates this one is paired across the two files, like the wall-clock
// tolerance — but multiplicative, because sub-millisecond latencies need
// more headroom than percentage tolerances give. 0 disables the gate.
//
// In two-file mode every enabled gate is evaluated (no early exit) and one
// machine-readable summary line mirroring ci.sh's CI_SUMMARY is printed:
//
//	BENCH_GATE status=ok wall=pass wall_worst=+3.2% mono=pass mono_worst=2.31x serve=off
//
// so the advisory bench job in the workflow is greppable per gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

var (
	tol      = flag.Float64("tol", 15, "maximum allowed slowdown, percent")
	monomin  = flag.Float64("monomin", 0, "minimum closure/mono speedup for every graph with paired mono+closure series (0 disables)")
	servemax = flag.Float64("servemax", 0, "maximum current/baseline latency ratio for p50 and p99 of every paired serve series (0 disables)")
	selftest = flag.Bool("selftest", false, "verify each enabled gate fires on a synthetic degradation of the baseline")
)

// series is one measured (graph, dir) run from a grbbench JSON file: the
// wall time plus the latency percentiles the serve gate reads.
type series struct {
	Graph   string  `json:"graph"`
	Dir     string  `json:"dir"`
	Seconds float64 `json:"seconds"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
}

// benchFile is the subset of the grbbench -json schema the gate reads.
type benchFile struct {
	Results []series `json:"results"`
}

func load(path string) (map[string]series, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(f.Results) == 0 {
		return nil, fmt.Errorf("%s: no results array", path)
	}
	m := make(map[string]series, len(f.Results))
	for _, s := range f.Results {
		m[s.Graph+"/"+s.Dir] = s
	}
	return m, nil
}

// compare reports every overlapping series and returns the keys that slowed
// down by more than tolPct.
func compare(base, cur map[string]series, tolPct float64) (regressed []string, worst float64) {
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b := base[k].Seconds
		c, ok := cur[k]
		if !ok {
			fmt.Printf("  %-24s base=%.4fs  (missing from current — skipped)\n", k, b)
			continue
		}
		if b <= 0 {
			fmt.Printf("  %-24s base=%.4fs  (non-positive baseline — skipped)\n", k, b)
			continue
		}
		delta := (c.Seconds - b) / b * 100
		if delta > worst {
			worst = delta
		}
		mark := "ok"
		if delta > tolPct {
			mark = "REGRESSED"
			regressed = append(regressed, k)
		}
		fmt.Printf("  %-24s base=%.4fs cur=%.4fs delta=%+.1f%% %s\n", k, b, c.Seconds, delta, mark)
	}
	for k := range cur {
		if _, ok := base[k]; !ok {
			fmt.Printf("  %-24s cur=%.4fs  (new series — no baseline)\n", k, cur[k].Seconds)
		}
	}
	return regressed, worst
}

// checkMono enforces the paired-ratio gate: for every graph that carries
// both a "<graph>/mono" and a "<graph>/closure" series, the closure time
// divided by the mono time must reach minRatio. Graphs without the pair are
// untouched — the gate is about the kernel-tier A/B, not general series.
func checkMono(cur map[string]series, minRatio float64) (failed []string, worst float64) {
	keys := make([]string, 0, len(cur))
	for k := range cur {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		graph, ok := strings.CutSuffix(k, "/mono")
		if !ok {
			continue
		}
		clos, ok := cur[graph+"/closure"]
		mono := cur[k].Seconds
		if !ok || mono <= 0 {
			continue
		}
		ratio := clos.Seconds / mono
		if worst == 0 || ratio < worst {
			worst = ratio
		}
		mark := "ok"
		if ratio < minRatio {
			mark = "TOO SLOW"
			failed = append(failed, graph)
		}
		fmt.Printf("  %-24s mono=%.4fs closure=%.4fs speedup=%.2fx (need %.2fx) %s\n",
			graph, mono, clos.Seconds, ratio, minRatio, mark)
	}
	return failed, worst
}

// checkServe enforces the paired cross-file latency gate: for every
// (graph, dir) series present in both files with a measured p50, the
// current file's p50 and p99 must each stay within maxRatio of the
// baseline's. Serve series carry Seconds=0, so the wall-clock tolerance
// gate skips them and this gate is their only owner.
func checkServe(base, cur map[string]series, maxRatio float64) (failed []string, pairs int, worst float64) {
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b := base[k]
		c, ok := cur[k]
		if !ok || b.P50Ms <= 0 || c.P50Ms <= 0 {
			continue
		}
		pairs++
		ratio := c.P50Ms / b.P50Ms
		if b.P99Ms > 0 && c.P99Ms > 0 {
			if r99 := c.P99Ms / b.P99Ms; r99 > ratio {
				ratio = r99
			}
		}
		if ratio > worst {
			worst = ratio
		}
		mark := "ok"
		if ratio > maxRatio {
			mark = "SLOWER"
			failed = append(failed, k)
		}
		fmt.Printf("  %-24s p50 %.2f->%.2fms p99 %.2f->%.2fms ratio=%.2fx (max %.2fx) %s\n",
			k, b.P50Ms, c.P50Ms, b.P99Ms, c.P99Ms, ratio, maxRatio, mark)
	}
	return failed, pairs, worst
}

func main() {
	flag.Parse()
	if *selftest {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: benchcmp -selftest baseline.json")
			os.Exit(2)
		}
		base, err := load(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp:", err)
			os.Exit(2)
		}
		steps := 2
		for _, gate := range []float64{*monomin, *servemax} {
			if gate > 0 {
				steps += 2
			}
		}
		step := 0
		announce := func(format string, args ...any) {
			step++
			fmt.Printf("selftest %d/%d: %s\n", step, steps, fmt.Sprintf(format, args...))
		}
		announce("baseline vs itself at tol=%.0f%% (must pass)", *tol)
		if reg, _ := compare(base, base, *tol); len(reg) > 0 {
			fmt.Fprintf(os.Stderr, "benchcmp selftest: identical inputs flagged %v\n", reg)
			os.Exit(1)
		}
		slowed := make(map[string]series, len(base))
		for k, v := range base {
			v.Seconds *= 1.20
			slowed[k] = v
		}
		timed := 0
		for _, v := range base {
			if v.Seconds > 0 {
				timed++
			}
		}
		announce("synthetic 20%% slowdown at tol=%.0f%% (must be flagged)", *tol)
		if reg, _ := compare(base, slowed, *tol); len(reg) != timed {
			fmt.Fprintf(os.Stderr, "benchcmp selftest: 20%% slowdown flagged %d of %d timed series\n", len(reg), timed)
			os.Exit(1)
		}
		if *monomin > 0 {
			announce("mono speedup gate at %.2fx (baseline must pass)", *monomin)
			if failed, _ := checkMono(base, *monomin); len(failed) > 0 {
				fmt.Fprintf(os.Stderr, "benchcmp selftest: baseline failed the mono gate: %v\n", failed)
				os.Exit(1)
			}
			// Degrade every mono series to its closure time: ratio 1.0 must
			// be flagged, proving the gate can fire.
			degraded := make(map[string]series, len(base))
			pairs := 0
			for k, v := range base {
				if g, ok := strings.CutSuffix(k, "/mono"); ok {
					if clos, ok := base[g+"/closure"]; ok {
						v.Seconds = clos.Seconds
						pairs++
					}
				}
				degraded[k] = v
			}
			if pairs == 0 {
				fmt.Fprintln(os.Stderr, "benchcmp selftest: -monomin set but no mono/closure pairs in baseline")
				os.Exit(1)
			}
			announce("mono degraded to closure parity (must be flagged)")
			if failed, _ := checkMono(degraded, *monomin); len(failed) != pairs {
				fmt.Fprintf(os.Stderr, "benchcmp selftest: parity flagged %d of %d pairs\n", len(failed), pairs)
				os.Exit(1)
			}
		}
		if *servemax > 0 {
			announce("serve latency gate at %.2fx (baseline vs itself must pass)", *servemax)
			failed, pairs, _ := checkServe(base, base, *servemax)
			if len(failed) > 0 {
				fmt.Fprintf(os.Stderr, "benchcmp selftest: baseline failed the serve gate against itself: %v\n", failed)
				os.Exit(1)
			}
			if pairs == 0 {
				fmt.Fprintln(os.Stderr, "benchcmp selftest: -servemax set but no serve latency series in baseline")
				os.Exit(1)
			}
			// Quadruple every latency percentile: every pair must be flagged,
			// proving the paired gate can fire.
			slower := make(map[string]series, len(base))
			for k, v := range base {
				if v.P50Ms > 0 {
					v.P50Ms *= 4
					v.P99Ms *= 4
				}
				slower[k] = v
			}
			announce("serve latencies blown 4x (must be flagged)")
			if failed, _, _ := checkServe(base, slower, *servemax); len(failed) != pairs {
				fmt.Fprintf(os.Stderr, "benchcmp selftest: slowed serve flagged %d of %d pairs\n", len(failed), pairs)
				os.Exit(1)
			}
		}
		fmt.Println("benchcmp selftest: OK")
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-tol pct] baseline.json current.json")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	overlap := 0
	for k := range base {
		if _, ok := cur[k]; ok {
			overlap++
		}
	}
	if overlap == 0 {
		fmt.Fprintln(os.Stderr, "benchcmp: no overlapping (graph, dir) series between the two files")
		os.Exit(2)
	}
	// Every enabled gate runs — no early exit — so one bad gate does not hide
	// another, and the BENCH_GATE line always reports the full picture.
	type gateResult struct {
		name   string
		on     bool
		failed []string
		worst  string // formatted worst ratio/delta, "" when no pairs
	}
	gates := make([]gateResult, 0, 3)
	anyFailed := false
	record := func(name string, on bool, failed []string, worst string) {
		gates = append(gates, gateResult{name, on, failed, worst})
		if on && len(failed) > 0 {
			anyFailed = true
		}
	}

	fmt.Printf("benchcmp: tolerance %.0f%%\n", *tol)
	reg, wallWorst := compare(base, cur, *tol)
	if len(reg) > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d series regressed beyond %.0f%%: %v\n", len(reg), *tol, reg)
	}
	record("wall", true, reg, fmt.Sprintf("%+.1f%%", wallWorst))

	if *monomin > 0 {
		fmt.Printf("benchcmp: mono speedup gate %.2fx\n", *monomin)
		failed, worst := checkMono(cur, *monomin)
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "benchcmp: %d graphs under the %.2fx mono speedup floor: %v\n",
				len(failed), *monomin, failed)
		}
		record("mono", true, failed, fmt.Sprintf("%.2fx", worst))
	} else {
		record("mono", false, nil, "")
	}
	if *servemax > 0 {
		fmt.Printf("benchcmp: serve latency gate %.2fx\n", *servemax)
		failed, pairs, worst := checkServe(base, cur, *servemax)
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "benchcmp: %d serve series beyond the %.2fx latency ceiling: %v\n",
				len(failed), *servemax, failed)
		}
		if pairs == 0 {
			fmt.Fprintln(os.Stderr, "benchcmp: -servemax set but no paired serve latency series — gate vacuous")
		}
		record("serve", true, failed, fmt.Sprintf("%.2fx", worst))
	} else {
		record("serve", false, nil, "")
	}

	status := "ok"
	if anyFailed {
		status = "fail"
	}
	line := "BENCH_GATE status=" + status
	for _, g := range gates {
		switch {
		case !g.on:
			line += fmt.Sprintf(" %s=off", g.name)
		case len(g.failed) > 0:
			line += fmt.Sprintf(" %s=fail %s_worst=%s", g.name, g.name, g.worst)
		default:
			line += fmt.Sprintf(" %s=pass %s_worst=%s", g.name, g.name, g.worst)
		}
	}
	fmt.Println(line)
	if anyFailed {
		os.Exit(1)
	}
	fmt.Println("benchcmp: OK")
}
