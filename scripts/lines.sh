#!/bin/sh
# `make lines`: the ROADMAP aim-2 numbers — lines of Go outside benchmark/ and
# testdata/, non-test and test (_test.go) side by side, per top-level package
# (internal/ one level down) and in total. A report, not a gate. Files deleted
# in the worktree but not yet in a commit are still listed by git ls-files
# and are skipped.
set -eu
cd "$(dirname "$0")/.."
git ls-files -co --exclude-standard '*.go' |
    grep -v -e '^benchmark/' -e '/testdata/' |
    while read -r f; do if [ -e "$f" ]; then printf '%s\n' "$f"; fi; done |
    xargs wc -l |
    awk '$2 == "total" { next }
         { n = split($2, p, "/"); pkg = "."
           if (n > 1) pkg = p[1]
           if (n > 2 && p[1] == "internal") pkg = p[1] "/" p[2]
           if ($2 ~ /_test\.go$/) { tests[pkg] += $1; ttotal += $1 } else { lines[pkg] += $1; total += $1 }
           seen[pkg] = 1 }
         END { printf "%6s %6s\n", "code", "test"
               for (pkg in seen) printf "%6d %6d %s\n", lines[pkg], tests[pkg], pkg | "sort -k3"
               close("sort -k3"); printf "%6d %6d total\n", total, ttotal }'
