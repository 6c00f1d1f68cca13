GO ?= go
# bench-smoke pipes through benchmedian; pipefail keeps a failing
# `go test` from being masked by the pipe.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

# bench-smoke knobs: medians of COUNT runs at BENCHTIME each. The
# SessionAssert numbers are high-variance (resampling rounds land on
# some iterations and not others); single-run numbers are noise, so the
# smoke always reports medians via cmd/benchmedian.
BENCHTIME ?= 1x
COUNT     ?= 3

# bench-throughput knobs: the -cpu list the multi-core rig runs at, and
# an optional JSON summary path for CI artifacts (empty = text only).
BENCHCPUS ?= 1,2,4
BENCHJSON ?=

# bench-suggest knobs: optional JSON summary path (the CI multicore job
# writes BENCH_suggest.json from it; empty = text only) and the
# iteration count. Suggest-per-assert is a warm steady-state metric —
# one iteration measures only the cold first rank — so the default runs
# enough asserts to reach the pruned path's steady state.
SUGGESTJSON ?=
SUGGESTTIME ?= 200x

# fuzz knob: how long `make fuzz` mutates each target.
FUZZTIME ?= 20s

.PHONY: all vet lint build test bench bench-smoke bench-suggest bench-throughput bench-e2e race examples fuzz resume-smoke

all: vet lint build test

vet:
	$(GO) vet ./...

# Custom invariant analyzers (lockorder, determinism, snapshotsafe,
# fsseam — see DESIGN.md, "Invariant enforcement"). Standalone mode
# loads packages itself; the same binary also speaks the vet unit-
# checker protocol, so editors and vet caching can drive it with
#   go build -o bin/lint ./cmd/lint && go vet -vettool=$(PWD)/bin/lint ./...
# List every justified suppression with `go run ./cmd/lint -suppressions`.
lint:
	$(GO) run ./cmd/lint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full micro- and experiment-benchmark run (slow).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Hot-path benchmark smoke (a superset of the CI bench step): COUNT
# repetitions at BENCHTIME each, reported as per-benchmark medians.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkInformationGain|BenchmarkSamplePerEmission|BenchmarkSessionAssert|BenchmarkMaximize|BenchmarkRepair' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) . | $(GO) run ./cmd/benchmedian
	# The concurrent-serving benchmark measures whole schedules (seconds
	# per op at C=2048), so the smoke runs only the C=512 case.
	$(GO) test -run '^$$' -bench 'BenchmarkConcurrentAssertMultiComp/C=512' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) . | $(GO) run ./cmd/benchmedian
	# Adaptive-vs-fixed refill budgets on the multicomp assert schedule.
	$(GO) test -run '^$$' -bench 'BenchmarkSessionAssertBudget' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) . | $(GO) run ./cmd/benchmedian
	# Incremental topology cost: one late schema / one component-merging
	# candidate batch on a live session vs recompiling the world.
	$(GO) test -run '^$$' -bench 'BenchmarkAddSchema|BenchmarkAddCandidatesMerge' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) . | $(GO) run ./cmd/benchmedian
	# Lazy top-k ranking: suggest-per-assert (assert off the clock,
	# pruned vs the exhaustive reference pass tests select) plus the
	# core-layer gain-pass microbenchmark.
	$(GO) test -run '^$$' -bench 'BenchmarkSuggestHot' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) . | $(GO) run ./cmd/benchmedian
	$(GO) test -run '^$$' -bench 'BenchmarkTopGainPass' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) ./internal/core | $(GO) run ./cmd/benchmedian
	# Matcher layer: both candidate generators on BP (scale 0.4 and 1)
	# and UAF at scale 0.5.
	$(GO) test -run '^$$' -bench '^BenchmarkMatcher$$' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) . | $(GO) run ./cmd/benchmedian

# Multi-core throughput rig: the Throughput benchmarks at each GOMAXPROCS
# in BENCHCPUS, reported as medians plus a scaling table (ratio vs the
# lowest cpu). Set BENCHJSON=path.json to also emit the machine-readable
# summary cmd/benchmedian -json produces (CI archives these).
bench-throughput:
	$(GO) test -run '^$$' -bench 'BenchmarkThroughput' -cpu $(BENCHCPUS) -benchtime $(BENCHTIME) -count $(COUNT) . | \
		$(GO) run ./cmd/benchmedian $(if $(BENCHJSON),-json $(BENCHJSON))

# Lazy top-k acceptance rig: BenchmarkSuggestHot medians (pruned vs
# the exhaustive reference pass) on the multicomp and hub-heavy merged
# profiles. Set SUGGESTJSON=path.json for the machine-readable
# summary (CI archives it as BENCH_suggest.json).
bench-suggest:
	$(GO) test -run '^$$' -bench 'BenchmarkSuggestHot' -benchmem -benchtime $(SUGGESTTIME) -count $(COUNT) . | \
		$(GO) run ./cmd/benchmedian $(if $(SUGGESTJSON),-json $(SUGGESTJSON))

# End-to-end benchmark (perfbench/, a nested module): one run of each
# workload at seed 1 with the default duration. Build products and
# traces stay under .bench_build/.
bench-e2e:
	@set -e; for w in bp-full uaf-half multicomp-durable; do bash perfbench/run.sh --workload $$w --seed 1; done

# Run every example main once — a smoke test that the public API
# surface the examples exercise keeps working end to end.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run "./$$d" > /dev/null; done; echo "examples OK"

# Resume smoke: cmd/reconcile on a bp dataset (scale 0.4), 10 oracle
# assertions per run. Two runs share one -store directory, and a -save
# run is followed by a -resume run; each second run must pick up the
# first one's assertions. Scratch files stay under .resume_smoke/.
RESUME := .resume_smoke
resume-smoke:
	@set -e; rm -rf $(RESUME); mkdir -p $(RESUME); \
	$(GO) build -o $(RESUME)/reconcile ./cmd/reconcile; \
	$(GO) run ./cmd/datagen -profile bp -scale 0.4 -seed 7 -out $(RESUME)/bp.json; \
	run() { $(RESUME)/reconcile -in $(RESUME)/bp.json -oracle -budget 10 -seed 3 "$$@"; }; \
	check() { grep -Eq "$$2" $$1 || { echo "resume-smoke: $$1 lacks /$$2/:"; cat $$1; exit 1; }; }; \
	run -store $(RESUME)/store > $(RESUME)/store1.txt; \
	run -store $(RESUME)/store > $(RESUME)/store2.txt; \
	check $(RESUME)/store2.txt '": 10 assertions on record'; \
	run -save $(RESUME)/saved.json > $(RESUME)/save.txt; \
	run -resume $(RESUME)/saved.json > $(RESUME)/resume.txt; \
	check $(RESUME)/resume.txt 'resumed session: [1-9][0-9]*% effort already spent'; \
	echo "resume-smoke OK"

# Native-fuzz smoke over the decoders that consume externally produced
# bytes — the session_io decoder (LoadSession), the dataset decoder
# feeding a live session (DecodeDataset → NewSession → Suggest/Assert/
# Instantiate), and the WAL recovery scan (arbitrary crash-damaged log
# images) — plus the dynamic-topology differential: random AddSchema/
# AddCandidates/RetireCandidate/Assert interleavings checked
# bit-for-bit against from-scratch construction. FUZZTIME per target;
# crashes land in testdata/fuzz/ as regression cases.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLoadSession -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzDecodeDataset -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzWALRecover -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzIncrementalBuild -fuzztime $(FUZZTIME) .
