#!/bin/sh
# Benchmark baseline: runs the grbbench traversal experiment (push / pull /
# adaptive BFS on hypersparse and RMAT graphs), the dense experiment
# (monomorphized vs closure kernels on block-format operands), and the serve
# experiment (closed- and open-loop latency/QPS against the multi-tenant query
# server), and records the measured series in BENCH_5.json at the repo root,
# so later PRs can diff performance against this one. Usage:
#
#   scripts/bench_baseline.sh [scale]
#
# with scale defaulting to 14 (the grbbench default; RMAT has 2^scale
# vertices).
#
# The baseline is only meaningful for a tree that passes the static-analysis
# gate — a discarded error can silently skip the very work being measured —
# so grblint runs first and a dirty tree refuses to emit the JSON.
set -eu
cd "$(dirname "$0")/.."

SCALE="${1:-14}"
OUT="BENCH_5.json"

echo "== lint gate: grblint must be clean before measuring =="
if ! make lint; then
    echo "bench_baseline: grblint reported diagnostics; fix them before recording a baseline" >&2
    exit 1
fi

echo "== traversal + dense + serve baseline: scale $SCALE -> $OUT =="
go run ./cmd/grbbench -run traversal,dense,serve -scale "$SCALE" -json "$OUT"

echo "baseline written to $OUT"
