#!/bin/sh
# Repo verification: tier-1 (build + full test suite), the fmt tier (gofmt
# -l over tracked sources prints nothing), the race tier
# (concurrency-sensitive suites under -race), the static-analysis tier
# (grblint must report zero diagnostics), the bench-smoke tier (the repo
# benchmark, a module of its own that ./... never compiles, still vets and
# passes its tests), and the invariant tier (the race
# suites again with the grbcheck runtime validators compiled in), then the
# chaos tier (the fault-injection sweep and hardening suites with grbcheck
# compiled in), the soak tier (the serving stack's overload storm under
# -race with faults armed) and the fuzz tier (ten seconds of native fuzzing
# of the Matrix Market reader against its reference). Equivalent to `make
# verify`; kept as a script so CI hooks without make can run it.
set -eu
cd "$(dirname "$0")/.."

echo "== tier-1: go build ./... && go test ./... =="
go build ./...
go test ./...

echo "== fmt tier: gofmt -l over tracked .go files outside testdata/ =="
sh scripts/fmt.sh

echo "== race tier: multithread / nonblocking / differential / observability suites =="
go test -race . ./internal/sparse ./internal/parallel ./internal/obsv ./serve ./lagraph ./mtx

echo "== lint tier: grblint (infocheck, snapshotcheck, lockcheck, enumcheck, budgetcheck, obsvcheck, sitecheck, atomiccheck, panicpathcheck) =="
go run ./cmd/grblint ./...

echo "== bench-smoke tier: go vet + go test in benchmark/ =="
go -C benchmark vet ./...
go -C benchmark test ./...

echo "== invariant tier: grbcheck runtime validators under -race =="
go test -tags grbcheck -race . ./internal/sparse ./lagraph

echo "== chaos tier: fault-injection sweep + budget/cancel hardening suites =="
go test -tags grbcheck -race -count=1 \
    -run 'TestChaos|TestScattered|TestFaultSpec|TestBudget|TestCancel|TestDeadline|TestInjectedPanic|TestUserOperatorPanic' .

echo "== soak tier: serving-stack overload storm under -race, faults armed =="
GRB_SOAK=10s go test -race -count=1 -run 'TestOverloadSoak' ./serve

echo "== fuzz tier: mtx.Read against its reference, 10 s of native fuzzing =="
go test ./mtx -run '^$' -fuzz FuzzRead -fuzztime 10s

echo "verify: OK"
