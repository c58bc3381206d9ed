// grblint is the repo's static-analysis gate: a multichecker with eight
// analyzers enforcing the GraphBLAS 2.0 invariants that neither a Go
// compiler nor a test can see —
//
//	infocheck       every grb.Info / grb API error must be observed (§V)
//	snapshotcheck   kernels must not mutate *CSR/*Vec snapshots (§III)
//	lockcheck       no lock-acquiring entry point under a held object mutex
//	enumcheck       switches over the pinned enums must be exhaustive (§IX)
//	budgetcheck     sparse Exec kernel scratch must be budget-charged (§IV)
//	atomiccheck     no package-level sync/atomic functions, only the types
//	panicpathcheck  goroutine launches / fan-out kernels carry recover guards
//	seedcheck       no time value seeds a test's math/rand
//
// Usage:
//
//	grblint [-only name1,name2] [packages...]
//
// Packages default to ./... and accept the usual go package patterns; test
// files (in-package and external) are analyzed too. Every analyzer always
// runs (together they take under 0.1 s of a run that is all loading and
// type-checking); -only narrows what is printed and counted. Exit status is
// 1 when any diagnostic survives suppression. Diagnostics are silenced per
// line with a trailing (or immediately preceding) comment:
//
//	//grblint:ignore infocheck -- reason
//
// and a directive without a reason, naming no registered analyzer, or
// silencing nothing is itself a diagnostic (reported as "ignore").
//
// The analyzers are built on internal/lint, a stdlib-only stand-in for
// golang.org/x/tools/go/analysis (the build runs offline, so the x/tools
// multichecker/vettool protocol is not available; `make lint` runs this
// binary directly instead of through `go vet -vettool`).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/grblas/grb/internal/lint"
	"github.com/grblas/grb/internal/lint/atomiccheck"
	"github.com/grblas/grb/internal/lint/budgetcheck"
	"github.com/grblas/grb/internal/lint/enumcheck"
	"github.com/grblas/grb/internal/lint/infocheck"
	"github.com/grblas/grb/internal/lint/lockcheck"
	"github.com/grblas/grb/internal/lint/panicpathcheck"
	"github.com/grblas/grb/internal/lint/seedcheck"
	"github.com/grblas/grb/internal/lint/snapshotcheck"
)

var analyzers = []*lint.Analyzer{
	infocheck.Analyzer,
	snapshotcheck.Analyzer,
	lockcheck.Analyzer,
	enumcheck.Analyzer,
	budgetcheck.Analyzer,
	atomiccheck.Analyzer,
	panicpathcheck.Analyzer,
	seedcheck.Analyzer,
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to report (default: all)")
	flag.Parse()

	shown := map[string]bool{lint.IgnoreName: true}
	for _, a := range analyzers {
		shown[a.Name] = true
	}
	if *only != "" {
		picked := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			if name = strings.TrimSpace(name); !shown[name] {
				fmt.Fprintf(os.Stderr, "grblint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			picked[name] = true
		}
		shown = picked
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grblint: %v\n", err)
		os.Exit(2)
	}

	found := 0
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grblint: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			if shown[d.Analyzer] {
				fmt.Println(d)
				found++
			}
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "grblint: %d diagnostic(s)\n", found)
		os.Exit(1)
	}
}
