# Local dev and CI run the same targets (ci.yml calls make).
GO ?= go

# Root benchmarks recorded in the BENCH_<pr>.json perf trajectory. The
# alternatives must not contain "/": go test splits -bench on slashes and
# applies each piece per sub-benchmark level, so a top-level name match
# runs all of its sub-benchmarks (BenchmarkEvaluateGrid covers every
# kind/mode variant plus the Looped scalar reference). The served handlers
# (BenchmarkServeEvaluate, BenchmarkServeOptimize) are recorded beside the
# kernels, but benchjson -check skips a benchmark its baseline run lacks
# ("skipped ...: not in baseline"), so bench-check and CI's perf-gate gate
# them only once a baseline row holds them.
BENCHES ?= BenchmarkEvaluateETEE|BenchmarkEvaluateGrid|BenchmarkReferenceSim|BenchmarkPredictor$$|BenchmarkSuiteSerial|BenchmarkSuiteParallel|BenchmarkTraceSim|BenchmarkCompareOnTraces|BenchmarkOptimize|BenchmarkServeEvaluate|BenchmarkServeOptimize
BENCHTIME ?= 1s
BENCH_LABEL ?= current
# PR 10 migrated the perf record from BENCH_9.json: BENCH_10's "baseline"
# run carries BENCH_9's committed "current" numbers forward, so the gate
# still compares against the pre-PR trajectory. Gate against the old file
# explicitly with BENCH_JSON=BENCH_9.json if needed during migration.
BENCH_JSON ?= BENCH_10.json
# Allowed fractional regression before bench-check fails. Generous by
# default because shared CI runners are noisy (±40% run-to-run on this
# suite); tighten locally with BENCH_TOLERANCE=0.15 on a quiet machine.
BENCH_TOLERANCE ?= 0.60

# Pinned analysis-tool versions, installed on demand by `go run` (CI) —
# bump deliberately, not implicitly.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race bench bench-json bench-check perfbench-check perfbench-ab lint fmt ci smoke fuzz-smoke staticcheck govulncheck

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle=on randomizes test (and package-level subtest) execution order
# each run, so the race job also flushes out inter-test state dependence.
race:
	$(GO) test -race -shuffle=on ./...

# Benchmark smoke run: every benchmark once, so CI catches bit-rot without
# paying for full measurement.
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Record the perf trajectory: run the root benchmarks and merge the numbers
# (ns/op, B/op, allocs/op per benchmark) into $(BENCH_JSON) under
# $(BENCH_LABEL). Committed baselines under other labels are preserved, so
# `make bench-json` after an optimization updates "current" while keeping
# the pre-PR "baseline" for comparison.
# Two steps (not a pipe) so a benchmark failure fails the target instead of
# being masked by benchjson's exit status.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -benchtime=$(BENCHTIME) . > $(BENCH_JSON).tmp
	$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out $(BENCH_JSON) < $(BENCH_JSON).tmp
	@rm -f $(BENCH_JSON).tmp

# Perf gate: rerun the recorded benchmarks and fail if any shared ns/op or
# throughput ("/s") metric regressed beyond $(BENCH_TOLERANCE) of the
# committed $(BENCH_JSON) "current" run. Two steps (not a pipe) so a
# benchmark failure fails the target rather than reading as an empty run.
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -benchtime=$(BENCHTIME) . > $(BENCH_JSON).check.tmp
	$(GO) run ./cmd/benchjson -check -baseline $(BENCH_JSON) -against current -tolerance $(BENCH_TOLERANCE) < $(BENCH_JSON).check.tmp
	@rm -f $(BENCH_JSON).check.tmp

# perfbench is its own module (perfbench/go.mod), so the root build and
# tests never compile it, yet it imports the internal packages. Vet and test
# it here so a change to those packages cannot break the benchmark unseen
# (its tests serve flex-small for a second). Then serve sweep-cold,
# scatter-warm and optimize for two seconds each: every run must end in
# {"correct":true,"attempted":N,"failed":0,...} with N >= 1, so both
# evaluate routes and /v1/optimize sustain work at low load with no
# non-200 answer, transport error, late request or answer that differs
# from the library's bits.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	for w in sweep-cold scatter-warm optimize; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | tail -n 1 \
			| grep -E '^\{"correct":true,"attempted":[1-9][0-9]*,"failed":0,' \
			|| { echo "perfbench-check: $$w did not run correct with 0 failed" >&2; exit 1; }; \
	done

# Paired end-to-end runs against another revision: BASE's perfbench, built
# from a local git worktree under .bench_build/, and this checkout's run
# PAIRS pairs of WORKLOAD for SECONDS each on seeds SEED+1..SEED+PAIRS,
# alternating which side goes first. Every run's JSON line is kept in
# .bench_build/ab/WORKLOAD.jsonl, and benchjson -pairs prints each metric's
# medians, quartiles and pairs won, and whether a claimed gain holds (the
# change wins at least 9 pairs in 10 and its median is beyond the base's
# interquartile range).
BASE ?= HEAD
WORKLOAD ?= sweep-cold
PAIRS ?= 10
SECONDS ?= 20
SEED ?= 1000
perfbench-ab:
	bash scripts/perfbench_ab.sh '$(BASE)' '$(WORKLOAD)' '$(PAIRS)' '$(SECONDS)' '$(SEED)'

# Boot the flexwattsd daemon (built with -race), hit every endpoint class,
# diff the served ASCII bodies against the committed goldens (fig2b's grids
# resolve through the shared cache), check the evaluate stream's NDJSON
# lines and a 5-candidate /v1/optimize frontier, require that search to add
# keys and hits to /v1/admin/cache, and check that /metrics booked points,
# streamed points and candidates and counted no 5xx answer.
smoke:
	bash scripts/smoke_flexwattsd.sh

# Short-budget fuzz runs over the untrusted input surfaces, the evaluate
# request (decoded, then served) and the public Point → Result path, plus
# the §3.3 inversion against its reference bisection (same bits for any
# TDP, workload type and budget), the PDN kernels against their frozen
# scalar oracle (same bits and errors for any scenario), the evaluate
# wire codec against encoding/json (the scanner against json.Decoder on
# any body it accepts, float rendering against json.Marshal for any bits),
# domain.LeakPow against math.Pow(x, 2.8) (same bits for any x), and the
# optimize request served under a 100 ms deadline (FuzzOptimizeRequest:
# a 4xx envelope, a well-formed 200 frontier or a cancelled search, never
# a 5xx or a panic).
# -fuzz accepts one target at a time, so eight sequential invocations.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEvaluateRequest$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzEvaluateBatch$$' -fuzztime $(FUZZTIME) ./flexwatts
	$(GO) test -run '^$$' -fuzz '^FuzzFreqRatio$$' -fuzztime $(FUZZTIME) ./internal/perf
	$(GO) test -run '^$$' -fuzz '^FuzzEvaluateOracle$$' -fuzztime $(FUZZTIME) ./internal/pdn
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEvalPoints$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzAppendFloat$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzLeakPow$$' -fuzztime $(FUZZTIME) ./internal/domain
	$(GO) test -run '^$$' -fuzz '^FuzzOptimizeRequest$$' -fuzztime $(FUZZTIME) ./internal/server

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Deeper static analysis than vet (needs network on first run to fetch the
# pinned tool; CI runs it on every push).
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# Known-vulnerability scan over the module graph and stdlib usage.
govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

fmt:
	gofmt -w .

ci: build lint race bench perfbench-check
