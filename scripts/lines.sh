#!/bin/sh
# `make lines`: the ROADMAP aim-2 number — lines of non-test Go outside
# benchmark/ and testdata/ — per top-level package (internal/ one level
# down) and in total. A report, not a gate. Files deleted in the worktree but
# not yet in a commit are still listed by git ls-files and are skipped.
set -eu
cd "$(dirname "$0")/.."
git ls-files -co --exclude-standard '*.go' |
    grep -v -e '_test\.go$' -e '^benchmark/' -e '/testdata/' |
    while read -r f; do if [ -e "$f" ]; then printf '%s\n' "$f"; fi; done |
    xargs wc -l |
    awk '$2 == "total" { next }
         { n = split($2, p, "/"); pkg = "."
           if (n > 1) pkg = p[1]
           if (n > 2 && p[1] == "internal") pkg = p[1] "/" p[2]
           lines[pkg] += $1; total += $1 }
         END { for (pkg in lines) printf "%6d %s\n", lines[pkg], pkg | "sort -k2"
               close("sort -k2"); printf "%6d total\n", total }'
