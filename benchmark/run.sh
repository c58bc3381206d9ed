#!/bin/sh
# The driver's entry point: builds the benchmark from source into
# .bench_build/ at the root of the checkout, with Go's build cache and
# temporary files there too, so that nothing is written outside the
# checkout, then runs it with the arguments given. People can as well use
# `go -C benchmark run .`, which builds into Go's usual cache.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/go-cache" "$build/go-tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
