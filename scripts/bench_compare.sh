#!/bin/sh
# Bench-regression gate: re-runs the grbbench traversal, dense, and (when the
# baseline carries latency series) serve experiments and diffs them against
# the newest BENCH_*.json baseline at the repo root with cmd/benchcmp, failing
# when any (graph, dir) series slowed down by more than the tolerance — or
# when one of the paired-ratio gates (mono vs closure, serve p50/p99 vs
# baseline) breaks. Baseline series the current run no longer measures (the
# retired blocked-* experiment in BENCH_4/BENCH_5) are reported as missing
# and skipped. benchcmp
# ends its run with one machine-readable BENCH_GATE line (per-gate pass/fail
# plus the worst observed ratio) for log grepping in advisory CI runs.
#
#   scripts/bench_compare.sh              compare a fresh run against the baseline
#   scripts/bench_compare.sh --self-test  prove the gate fires (no benchmarks run):
#                                         baseline-vs-itself must pass, and each
#                                         enabled ratio gate must flag a synthetic
#                                         degradation of the baseline
#
# Tolerance knob: GRB_BENCH_TOL, percent, default 15. Wall-clock numbers are
# noisy on shared machines, so CI runs this gate in ADVISORY mode (the
# workflow prints the verdict but does not fail the build); `make verify-bench`
# runs it as a hard gate for quiet machines and release checks. Raise
# GRB_BENCH_TOL (e.g. GRB_BENCH_TOL=30) rather than skipping the gate when a
# host is known to be noisy.
#
# Mono knob: GRB_MONO_MIN, ratio, default 2 — every graph with paired
# mono/closure series (the dense experiment) must show the monomorphized
# kernel at least this many times faster than the closure kernel. The ratio
# divides out machine speed, so unlike the wall-clock tolerance it holds on
# noisy hosts. Set GRB_MONO_MIN=0 to disable.
#
# Serve knob: GRB_SERVE_MAX, ratio, default 1.5 — every serve-<algo> latency
# series present in both files must keep its p50 and p99 within this factor
# of the baseline's. Serve series carry Seconds=0, so the wall-clock
# tolerance never judges them; this paired multiplicative gate is their only
# owner (sub-millisecond latencies need more headroom than a percentage
# tolerance gives). Skipped automatically against pre-serve baselines. Set
# GRB_SERVE_MAX=0 to disable.
set -eu
cd "$(dirname "$0")/.."

TOL="${GRB_BENCH_TOL:-15}"
MONOMIN="${GRB_MONO_MIN:-2}"
SERVEMAX="${GRB_SERVE_MAX:-1.5}"

# Newest baseline by the PR sequence number in the filename.
BASELINE=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)
if [ -z "$BASELINE" ]; then
    echo "bench_compare: no BENCH_*.json baseline at the repo root; record one with scripts/bench_baseline.sh" >&2
    exit 2
fi
echo "bench_compare: baseline $BASELINE, tolerance ${TOL}% (GRB_BENCH_TOL), mono floor ${MONOMIN}x (GRB_MONO_MIN), serve ceiling ${SERVEMAX}x (GRB_SERVE_MAX)"

# Pre-serve baselines carry no latency percentiles; the serve gate has
# nothing to pair against there, so run without the serve experiment at all.
if ! grep -q '"p50_ms"' "$BASELINE"; then
    echo "bench_compare: baseline has no serve latency series; skipping the serve gate"
    SERVEMAX=0
fi

if [ "${1:-}" = "--self-test" ]; then
    SELFMONO="$MONOMIN"
    if ! grep -q '"dir": *"mono"' "$BASELINE"; then
        # Pre-dense baselines carry no mono/closure pairs; the ratio gate
        # has nothing to judge there.
        echo "bench_compare: baseline has no mono series; skipping the speedup floor"
        SELFMONO=0
    fi
    go run ./cmd/benchcmp -tol "$TOL" -monomin "$SELFMONO" -servemax "$SERVEMAX" -selftest "$BASELINE"
    exit $?
fi

SCALE=$(awk -F': *|,' '/"scale"/ {print $2; exit}' "$BASELINE")
SCALE="${SCALE:-14}"
CUR=$(mktemp /tmp/grbbench.XXXXXX.json)
trap 'rm -f "$CUR"' EXIT

RUN="traversal,dense"
if [ "$SERVEMAX" != "0" ]; then
    RUN="$RUN,serve"
fi
echo "bench_compare: measuring $RUN at scale $SCALE"
go run ./cmd/grbbench -run "$RUN" -scale "$SCALE" -json "$CUR" >/dev/null

go run ./cmd/benchcmp -tol "$TOL" -monomin "$MONOMIN" -servemax "$SERVEMAX" "$BASELINE" "$CUR"
