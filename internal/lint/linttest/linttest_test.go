// These tests assert the behavior of the linttest harness itself and of the
// runner's suppression rules — diagnostic position matching,
// //grblint:ignore scoping, and the diagnostics a broken directive earns —
// by driving it with a recording TB fake and one tiny purpose-built
// analyzer.
package linttest_test

import (
	"fmt"
	"go/ast"
	"strings"
	"testing"

	"github.com/grblas/grb/internal/lint"
	"github.com/grblas/grb/internal/lint/linttest"
)

// markcheck reports at every identifier named markme. It exists purely to
// give the harness something position-anchored to match.
var markcheck = &lint.Analyzer{
	Name: "markcheck",
	Doc:  "test analyzer: reports every identifier named markme",
	Run: func(pass *lint.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "markme" {
					pass.Reportf(id.Pos(), "mark at %s", id.Name)
				}
				return true
			})
		}
		return nil
	},
}

// fakeTB records what the harness reports instead of failing the test.
type fakeTB struct {
	errors []string
	fatal  string
}

type fatalSentinel struct{}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Errorf(format string, args ...any) {
	f.errors = append(f.errors, fmt.Sprintf(format, args...))
}
func (f *fakeTB) Fatal(args ...any) {
	f.fatal = fmt.Sprint(args...)
	panic(fatalSentinel{})
}
func (f *fakeTB) Fatalf(format string, args ...any) {
	f.fatal = fmt.Sprintf(format, args...)
	panic(fatalSentinel{})
}

// run invokes fn, swallowing the harness's Fatal (which panics with a
// sentinel in the fake, standing in for testing.T's runtime.Goexit).
func (f *fakeTB) run(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(fatalSentinel); !ok {
				panic(r)
			}
		}
	}()
	fn()
}

// TestPositionAndIgnoreScoping drives Run over a corpus where every
// expectation should be satisfied: three diagnostics matched by wants, one
// silenced by a trailing ignore, one by a standalone ignore, and the four
// ways a directive breaks the suppression rules (no reason, an unknown
// analyzer, nothing to silence, no analyzer named) each reported at the
// directive. A clean run must report nothing.
func TestPositionAndIgnoreScoping(t *testing.T) {
	f := &fakeTB{}
	f.run(func() { linttest.Run(f, "testdata", markcheck, "marks") })
	if f.fatal != "" {
		t.Fatalf("harness Fatal'd: %s", f.fatal)
	}
	for _, e := range f.errors {
		t.Errorf("clean corpus produced harness error: %s", e)
	}
}

// TestMismatchReporting drives Run over a corpus whose only want sits on
// the wrong line, and asserts the harness reports both failure modes: the
// diagnostic nothing expected, and the expectation nothing matched.
func TestMismatchReporting(t *testing.T) {
	f := &fakeTB{}
	f.run(func() { linttest.Run(f, "testdata", markcheck, "mismatch") })
	if f.fatal != "" {
		t.Fatalf("harness Fatal'd: %s", f.fatal)
	}
	var unexpected, unmatched bool
	for _, e := range f.errors {
		if strings.Contains(e, "unexpected diagnostic") && strings.Contains(e, "mark at markme") {
			unexpected = true
		}
		if strings.Contains(e, "no diagnostic matched") {
			unmatched = true
		}
	}
	if !unexpected {
		t.Errorf("harness did not report the unexpected diagnostic; got %q", f.errors)
	}
	if !unmatched {
		t.Errorf("harness did not report the unmatched want; got %q", f.errors)
	}
	if len(f.errors) != 2 {
		t.Errorf("want exactly 2 harness errors, got %d: %q", len(f.errors), f.errors)
	}
}

// TestMissingCorpusFatals asserts the harness aborts (Fatal, not Errorf)
// when the corpus package does not exist.
func TestMissingCorpusFatals(t *testing.T) {
	f := &fakeTB{}
	f.run(func() { linttest.Run(f, "testdata", markcheck, "no-such-pkg") })
	if f.fatal == "" {
		t.Fatal("missing corpus did not Fatal")
	}
	if !strings.Contains(f.fatal, "no-such-pkg") {
		t.Errorf("Fatal message does not name the corpus: %s", f.fatal)
	}
}
