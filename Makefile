GO ?= go

# Every tier's command line lives here and nowhere else: scripts/ci.sh runs
# `make <tier>` per tier, scripts/verify.sh is `make verify`, and the workflow
# calls one or the other.
.PHONY: all build test fmt race bench lint bench-smoke checktags chaos soak fuzz verify ci lines

all: build test

build:
	$(GO) build ./...

# Tier-1: the gate every change must pass (see ROADMAP.md).
test: build
	$(GO) test ./...

# Format tier: gofmt -l over the tracked .go files outside testdata/ must
# print nothing.
fmt:
	sh scripts/fmt.sh

# Race tier: the concurrency-sensitive packages under the race detector —
# the root package (multithreaded method calls, the nonblocking pipeline),
# internal/sparse (the dense-vs-hash differential kernel harness, which runs
# both accumulators across worker counts), internal/parallel,
# internal/obsv (concurrent emit into every sink), serve, lagraph
# (TriangleCount, the masked-SpGEMM consumer) and mtx (the reader hands out views into a buffer it reuses).
race:
	$(GO) test -race . ./internal/sparse ./internal/parallel ./internal/obsv ./serve ./lagraph ./mtx

# Kernel benchmarks, the hypersparse adaptive-selection pair
# (BenchmarkHypersparse_MxM and _MxV, unpinned: each fails unless the hash
# structure served every range), and the nine timings that fail a run, all
# in-run ratios: BenchmarkKernelFamilyLoopPair
# (closure/mono >= 2 on both of its workloads), BenchmarkReduceFamilyPair
# (closure/mono >= 1.5 on rmat-16's row sums and a 65 536-entry vector sum),
# BenchmarkBinaryFamilyPair (closure/mono >= 1.2 on PageRank's r ⊗ send,
# r ⊙ dangling and pull accumulate over rmat-16),
# BenchmarkPullGatherPair (hash/dense gather >= 1.5 unmasked on rmat-14, <= 1
# under a 64-row mask over a hypersparse matrix), BenchmarkPullAccumPair
# (product-then-merge over the one-pass accumulating pull >= 0.9),
# BenchmarkMaskFirstProbePair (the branching mask-first probe over the
# branch-free one >= 1.3 on the triangle count's product),
# BenchmarkForkGrainPair (one worker over two >= 0.9
# wherever the default grain forks a pull or a push over rmat-10 to rmat-16),
# BenchmarkDirCutPair (the direction the edge rule does not pick over the one
# it picks >= 0.9, at half and at twice the cut, for a min-plus and a masked
# lor-land product, and at 5, 45 and 80 % of the vertices for an unmasked
# min-plus product, on rmat-14 and rmat-16) and BenchmarkQueryBodyPair
# (encoding/json over serve's answer writer >= 1.2 on rmat-10's 2-hop ego
# body). Not part of tier-1. The
# paper's figures and tables are `go test -bench
# 'Fig|Table|Ablation|Hypersparse|Traversal' .`; claims are judged on
# `sh benchmark/run.sh`.
bench:
	$(GO) test ./internal/sparse -run '^$$' -bench . -benchmem
	$(GO) test . -run '^$$' -bench Hypersparse -benchmem
	$(GO) test ./serve -run '^$$' -bench QueryBodyPair -benchmem

# Static-analysis tier: grblint's seven analyzers (infocheck, snapshotcheck,
# lockcheck, enumcheck, budgetcheck, atomiccheck, panicpathcheck) over every
# package including test files. Must report zero diagnostics; suppress a
# deliberate case with `//grblint:ignore name -- reason` — a suppression with
# no reason, naming no analyzer, or silencing nothing is a diagnostic too.
lint:
	$(GO) run ./cmd/grblint ./...

# Bench-smoke tier: benchmark/ is a module of its own, so `go build ./...`
# and `go test ./...` above never compile it, yet it calls internal/sparse
# kernels by signature. Vet it and run its tests (about 2 s) so a kernel
# change cannot break the repo benchmark unnoticed; then one round each of
# BenchmarkReduceFamilyPair (1 s), the timing the reductions' family loops
# stand on, BenchmarkBinaryFamilyPair (1.5 s), the one the binary operators'
# family loops do, BenchmarkPullAccumPair (0.4 s), the one the accumulating
# pull does, BenchmarkMaskFirstProbePair (1 s), the one the mask-first probe
# does, BenchmarkForkGrainPair (2 s), the one the default grain does,
# BenchmarkDirCutPair (7 s), the one the direction cuts do,
# BenchmarkPushAccumPair (1 s), the push's table against its SPA, which
# checks each arm's route and has no timing floor, BenchmarkSelectCutPair
# (0.7 s), the positional select's row cut against its closure, which checks
# the two agree and has no timing floor either,
# BenchmarkQueryBodyPair (1 s), the one the query writer does, and
# BenchmarkAlgorithmBytes (2 s), the KB and allocations per call of BFS,
# SSSP and PageRank on rmat-14 — traverse-large's byte map — next to those of
# a 2-hop ego answer (EgoNet, Wait, ExtractTuples: what serve's ego handler
# pays), with no floor.
bench-smoke:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...
	$(GO) test ./internal/sparse -run '^$$' -bench 'ReduceFamilyPair|BinaryFamilyPair|PullAccumPair|MaskFirstProbePair|ForkGrainPair|DirCutPair|PushAccumPair|SelectCutPair' -benchtime 1x
	$(GO) test ./serve -run '^$$' -bench QueryBodyPair -benchtime 1x
	$(GO) test ./lagraph -run '^$$' -bench AlgorithmBytes -benchtime 1x

# Invariant tier (CI calls it grbcheck): the concurrency-sensitive suites
# with the grbcheck runtime validators compiled in — every CSR/Vec install
# re-validates the snapshot contract (monotone row pointers, sorted+unique
# indices, nnz consistency). The vet keeps the tagged files compiling clean.
checktags:
	$(GO) vet -tags grbcheck ./internal/sparse
	$(GO) test -tags grbcheck -race . ./internal/sparse ./lagraph

# Chaos tier: the fault-injection differential sweep (every registered site
# crossed with alloc-failure and panic shapes) plus the budget, cancellation,
# and panic-isolation suites, with the grbcheck validators compiled in. Any
# injected fault must surface as a parked §V execution error — never a crash —
# and every intermediate snapshot must still satisfy the invariants. CI runs
# this in advisory mode: an injection-harness flake must not mask a tier-1
# regression.
chaos:
	$(GO) test -tags grbcheck -race -count=1 \
	    -run 'TestChaos|TestScattered|TestFaultSpec|TestBudget|TestCancel|TestDeadline|TestInjectedPanic|TestUserOperatorPanic' .

# Soak tier: the serving stack's overload storm stretched to 10 seconds
# under -race — each tenant's AIMD window, circuit breaker and bounded queue,
# and the memory governor running hot against armed delay + sampled
# allocation faults, then a clean-recovery check. CI runs this in advisory
# mode: a loaded machine can distort the storm's timing. The serving
# contract itself (every endpoint, 507/408/404/400/429, the drain) has no
# tier of its own: serve_test.go and overload_test.go drive it over loopback
# HTTP in tier-1 and race.
soak:
	GRB_SOAK=10s $(GO) test -race -count=1 -run 'TestOverloadSoak' ./serve

# Fuzz tier: ten seconds of native fuzzing of mtx.Read, every input checked
# against the reader it replaced, and ten of the program generator over
# (seed, program length), every program checked against its map oracle under
# every configuration (progen_test.go). The seed corpora run as plain tests
# in tier-1 and are what gates; CI runs this in advisory mode, because what
# the mutator reaches in ten seconds varies from run to run. A failing input
# is written under mtx/testdata/fuzz/ or testdata/fuzz/FuzzPrograms/: shrink a
# program to the fewest steps that fail, and check that one in.
fuzz:
	$(GO) test ./mtx -run '^$$' -fuzz FuzzRead -fuzztime 10s
	$(GO) test . -run '^$$' -fuzz '^FuzzPrograms$$' -fuzztime 10s

# The ROADMAP aim-2 numbers: lines of non-test and of test Go outside
# benchmark/ and testdata/, per top-level package and in total. A report;
# nothing gates on it.
lines:
	@sh scripts/lines.sh

verify: test fmt race lint bench-smoke checktags chaos soak fuzz

# The full tiered CI chain (scripts/ci.sh): build -> tier-1 -> fmt -> race ->
# lint -> bench-smoke -> grbcheck -> coverage floor, then soak, chaos
# and fuzz as advisory tiers, with per-tier timing and a machine-readable
# CI_SUMMARY line.
ci:
	sh scripts/ci.sh
