#!/bin/sh
# fmt tier (`make fmt`): gofmt -l over the tracked .go files outside
# testdata/ (analyzer fixtures keep whatever shape their test needs) must
# print nothing.
set -u
cd "$(dirname "$0")/.."
unformatted=$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "fmt: gofmt -l reports unformatted files (run gofmt -w on them):" >&2
    echo "$unformatted" >&2
    exit 1
fi
