#!/bin/sh
# Tiered CI entrypoint (`make ci` runs this). Chains every gate the repo
# defines, times each tier, and ends with one machine-readable summary line:
#
#   CI_SUMMARY status=ok tiers=11 build=2s test=14s fmt=0s race=31s lint=9s bench-smoke=2s grbcheck=22s coverage=12s soak=14s chaos=40s fuzz=12s soak_status=ok chaos_status=ok fuzz_status=ok lines=18228
#
# A tier is a Makefile target; what it runs and why is written there, once.
# Gating tiers, in order (cheapest first so broken trees fail fast):
#
#   build  test  fmt  race  lint  bench-smoke  grbcheck (make checktags)
#   coverage
#
# The serving contract has no tier of its own: its HTTP tests run in test
# and race.
#
# coverage is the one tier measured here: total statement coverage of
# `go test ./...` against scripts/coverage_floor.txt.
#
# Three advisory tiers follow — soak, chaos, fuzz — reported on the summary
# line as <tier>_status and never gating (`make <tier>` is the hard version).
#
# lines= is `make lines`' total (ROADMAP aim 2), reported and never gated.
#
# A failing gating tier stops the run; the summary line then reports
# status=fail and the tier that failed, still on one greppable line.
set -u
cd "$(dirname "$0")/.."

SUMMARY=""
STATUSES=""
TIERS=0

# run TIER_NAME cmd... — times one tier, appends "name=Ns" to the summary,
# and fails the whole run on a nonzero exit.
run() {
    name="$1"
    shift
    echo "== tier: $name =="
    t0=$(date +%s)
    if ! "$@"; then
        t1=$(date +%s)
        echo "CI_SUMMARY status=fail failed_tier=$name tiers=$TIERS $SUMMARY$name=$((t1 - t0))s"
        exit 1
    fi
    t1=$(date +%s)
    SUMMARY="$SUMMARY$name=$((t1 - t0))s "
    TIERS=$((TIERS + 1))
}

# advisory TIER_NAME — times `make TIER_NAME` and records its verdict as
# name_status on the summary line without failing the run.
advisory() {
    name="$1"
    echo "== tier: $name (advisory) =="
    t0=$(date +%s)
    if make "$name"; then
        status=ok
    else
        status=fail
        echo "$name: advisory tier failed (does not gate the run; reproduce with make $name)" >&2
    fi
    t1=$(date +%s)
    SUMMARY="$SUMMARY$name=$((t1 - t0))s "
    STATUSES="$STATUSES ${name}_status=$status"
    TIERS=$((TIERS + 1))
}

coverage_tier() {
    floor=$(cat scripts/coverage_floor.txt)
    go test -count=1 -coverprofile=coverage.out ./... >/dev/null || return 1
    total=$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
    rm -f coverage.out
    echo "coverage: total=${total}% floor=${floor}%"
    # The floor is the measured total at the time it was last seeded, minus
    # two points of slack; a drop below it means a change shipped untested
    # code. Raise the floor when coverage genuinely improves.
    awk -v t="$total" -v f="$floor" 'BEGIN { exit (t + 0 >= f + 0) ? 0 : 1 }' || {
        echo "coverage: ${total}% is below the floor ${floor}% (scripts/coverage_floor.txt)" >&2
        return 1
    }
}

run build make build
run test make test
run fmt make fmt
run race make race
run lint make lint
run bench-smoke make bench-smoke
run grbcheck make checktags
run coverage coverage_tier

advisory soak
advisory chaos
advisory fuzz

echo "CI_SUMMARY status=ok tiers=$TIERS $SUMMARY${STATUSES# } lines=$(make -s lines | awk '$NF == "total" { print $1 }')"
