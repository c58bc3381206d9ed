// Command benchmark is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the system would see, and a traced run that
// times the same operations at every depth of the stack. See README.md.
//
//	go -C benchmark run . --workload serve-small --seed 1 --seconds 25 --trace 0
//	go -C benchmark run . --workload serve-small --seed 1 --seconds 25 --trace 1 --spans spans.json
//	go -C benchmark run .                  # every workload, tracing off
//	go -C benchmark run . --selfcompare    # every workload twice, gaps against the bounds
//
// The last line of standard output is one JSON object per workload run;
// everything for people goes to standard error.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"

	grb "github.com/grblas/grb"
)

// The host this was sized on has two cores, and the runtime is pinned to
// match. The measured phases drive the program from one caller; only the
// traced run's open loop uses two connections.
const maxProcs = 2

func main() {
	log.SetFlags(0)
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed for the query mix, the query sources and the setElement positions")
	seconds := flag.Float64("seconds", 25, "seconds of measurement per workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run and per-layer metrics")
	spans := flag.String("spans", "", "with --trace 1, write the spans to this file as JSON")
	selfcompare := flag.Bool("selfcompare", false, "run the untraced suite twice and compare each metric's gap with its bound")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		log.Fatal("benchmark: --seconds must be positive and --trace 0 or 1")
	}

	runtime.GOMAXPROCS(maxProcs)
	must(grb.Init(grb.NonBlocking))
	printHeader(*seed)

	defs := workloads
	if *name != "all" {
		def, ok := workloadByName(*name)
		if !ok {
			log.Fatalf("benchmark: unknown workload %q", *name)
		}
		defs = []workloadDef{def}
	}
	if *selfcompare {
		if !selfCompare(defs, *seed, *seconds) {
			os.Exit(1)
		}
		return
	}
	failed := false
	for _, def := range defs {
		var res result
		metrics := endToEnd
		if *trace == 1 {
			res, metrics = runTraced(def, *seed, *seconds, *spans), perLayer
		} else {
			res = runUntraced(def, *seed, *seconds)
		}
		printHuman(res, metrics)
		fmt.Println(jsonLine(res, metrics))
		failed = failed || res.failed > 0
	}
	must(grb.Finalize())
	// A single workload is the driver's call: the JSON line carries the
	// verdict and the exit code stays 0. The whole suite is a person's
	// call, and a failed operation fails it.
	if failed && len(defs) > 1 {
		os.Exit(1)
	}
}

func printHeader(seed int64) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seed)
}

// selfCompare runs the untraced suite twice, the second time in reverse
// workload order, and reports for each workload and end-to-end metric both
// values, the gap in the metric's worse direction as a share of the first,
// and the bound. It reports false if any gap exceeds its bound or any
// operation failed.
func selfCompare(defs []workloadDef, seed int64, seconds float64) bool {
	first := make([]result, len(defs))
	second := make([]result, len(defs))
	for i, def := range defs {
		first[i] = runUntraced(def, seed, seconds)
	}
	for i := len(defs) - 1; i >= 0; i-- {
		second[i] = runUntraced(defs[i], seed, seconds)
	}
	ok := true
	fmt.Printf("%-16s %-16s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "gap", "bound")
	for i, def := range defs {
		a, b := first[i], second[i]
		if a.failed+b.failed > 0 {
			ok = false
			fmt.Printf("%-16s failed operations: %d then %d\n", def.Name, a.failed, b.failed)
		}
		for _, md := range endToEnd {
			x, y := a.metrics[md.Name], b.metrics[md.Name]
			gap := ratio(y-x, x)
			if md.Better == "higher" {
				gap = -gap
			}
			verdict := ""
			if gap > md.Bound {
				ok = false
				verdict = "  EXCEEDS"
			}
			fmt.Printf("%-16s %-16s %14.4f %14.4f %+7.1f%% %6.0f%%%s\n", def.Name, md.Name, x, y, 100*gap, 100*md.Bound, verdict)
		}
	}
	return ok
}
