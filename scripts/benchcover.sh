#!/bin/sh
# `make benchcover`: which code of one package the repo benchmark's four
# workloads reach. Builds benchmark/ with -cover over every package of the
# module into a temporary directory (nothing is written under benchmark/),
# runs each workload for a few seconds with GOCOVERDIR set, drops the
# benchmark's own blocks from the profile (`go tool cover -func` cannot find
# their files outside the module's tree) and prints the named package's
# per-function coverage, then every block no workload reached with its
# source lines. It is the evidence for "no workload takes this branch";
# advisory, and no CI tier runs it.
#
#   sh scripts/benchcover.sh [package [seconds]]   # default internal/sparse 3
set -eu
cd "$(dirname "$0")/.."
pkg=${1:-internal/sparse}
seconds=${2:-3}
mod=github.com/grblas/grb
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/cov"
go -C benchmark build -cover -coverpkg="$mod/..." -o "$tmp/bench" .
for w in serve-small traverse-large spgemm-mid ingest; do
    GOCOVERDIR="$tmp/cov" "$tmp/bench" --workload "$w" --seed 5 --seconds "$seconds" >"$tmp/$w.out" 2>&1 ||
        { cat "$tmp/$w.out"; echo "benchcover: workload $w failed" >&2; exit 1; }
done
go tool covdata textfmt -i "$tmp/cov" -o "$tmp/all.out"
grep -v "^$mod/benchmark/" "$tmp/all.out" >"$tmp/prof.out"
echo "== per-function coverage of $pkg (seed 5, ${seconds}s a workload)"
go tool cover -func "$tmp/prof.out" | grep "/$pkg/[^/]*:" | sed "s|^$mod/||"
echo "== blocks of $pkg no workload reached"
# A profile line is file:l0.c0,l1.c1 stmts count; print each unreached one's
# source lines under its location.
grep "^$mod/$pkg/[^/]*:" "$tmp/prof.out" | awk '$3 == 0' | sort -t: -k1,1 -k2,2n |
    while read -r loc _ _; do
        file=${loc%%:*}
        span=${loc#*:}
        l0=${span%%.*}
        rest=${span#*,}
        l1=${rest%%.*}
        echo "-- ${file#"$mod"/}:$l0-$l1"
        sed -n "${l0},${l1}p" "${file#"$mod"/}"
    done
