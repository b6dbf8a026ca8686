GO ?= go
# bench-json pipes `go test` into benchjson; pipefail makes a failing
# benchmark run fail the target instead of shipping a truncated file.
SHELL := /bin/bash

# Benchmarks measured by bench-json. Covers the sweep engine (memoized
# workload arena vs the unmemoized A/B control), the run-level pool, the
# zero-allocation cache hot path, the sharded live proxy tier
# (serialized shards=1 vs sharded shards=8 throughput), and the
# shard-aware refinement scheduler (evals/shard must fall as total/N).
BENCH_PATTERN ?= BenchmarkSweepSequential|BenchmarkSweepParallel8|BenchmarkSweepUnmemoized|BenchmarkSimRunParallelism|BenchmarkCacheOpThroughput|BenchmarkAccess|BenchmarkWorkloadGeneration|BenchmarkProxyServe|BenchmarkRelayCoalesce|BenchmarkShardedRefinedSweep
# Override with BENCHTIME=1x for a CI smoke run; the default gives
# stable numbers locally.
BENCHTIME ?= 2s
BENCH_JSON ?= BENCH.json
BENCH_BASELINE ?=

.PHONY: all ci vet lint lint-check build test race bench bench-smoke bench-json bench-gate fuzz-smoke perfbench-check figures docs-check results-check proxy-check load-check cluster-check clean

all: ci

## ci: everything the driver/CI gate runs, in order.
ci: vet lint build race bench-smoke

vet:
	$(GO) vet ./...

## lint: the mediavet multichecker (determinism, hotpath, shardlock,
## rowsink — see DESIGN.md "Machine-enforced invariants") over the
## whole module, then the pinned third-party pass (staticcheck,
## govulncheck; skipped with a warning offline unless LINT_STRICT=1).
## Facts are cached under .cache/mediavet keyed by export data, so
## unchanged packages are free on re-runs.
lint:
	$(GO) run ./cmd/mediavet -summary ./...
	bash scripts/lint-extra.sh

## lint-check: end-to-end proof that `go vet -vettool=mediavet` works —
## clean on the shipped tree, and injected violations in internal/sim
## and internal/proxy fail it naming the right analyzer.
lint-check:
	bash scripts/lint-check.sh

build:
	$(GO) build ./...

## test: the tier-1 gate (ROADMAP.md).
test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

## bench-smoke: one iteration of the perf-trajectory benchmarks
## (sequential vs parallel sweep, run-level pool, cache op throughput).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSweepSequential|BenchmarkSweepParallel8|BenchmarkSimRunParallelism|BenchmarkCacheOpThroughput' -benchtime 1x .

## bench: the full benchmark suite (regenerates every figure; slow).
bench:
	$(GO) test -run '^$$' -bench . .

## bench-json: run the perf-trajectory benchmarks and emit $(BENCH_JSON).
## CI runs `make bench-json BENCHTIME=1x` as a smoke and uploads the
## file as an artifact; locally the default BENCHTIME gives stable
## numbers. Set BENCH_BASELINE=BENCH_PR3.json to record speedups against
## a committed trajectory file.
bench-json:
	set -o pipefail; \
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(BENCHTIME) . ./internal/core/ ./internal/proxy/ \
		| $(GO) run ./cmd/benchjson -out $(BENCH_JSON) \
			$(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE)) \
			$(if $(BENCH_NOTE),-note '$(BENCH_NOTE)')

## bench-gate: the perf ratchet. Rerun the pinned data-plane benchmarks
## and fail if any regresses against the committed baseline: more than
## GATE_REGRESS fractional ns/op slowdown, or ANY allocs/op increase.
## Locally the default 15% tolerance catches real slowdowns; CI runs
## `make bench-gate GATE_REGRESS=1.0` because ns/op is machine-dependent
## across runners while allocs/op is not — the alloc ratchet is always
## strict. Regenerate the baseline with bench-json when a PR
## legitimately moves the numbers.
GATE_PATTERN ?= BenchmarkAccess|BenchmarkProxyServe|BenchmarkRelayCoalesce
GATE_BASELINE ?= BENCH_PR8.json
GATE_REGRESS ?= 0.15
GATE_BENCHTIME ?= 1s
bench-gate:
	set -o pipefail; \
	$(GO) test -run '^$$' -bench '$(GATE_PATTERN)' -benchtime $(GATE_BENCHTIME) ./internal/core/ ./internal/proxy/ \
		| $(GO) run ./cmd/benchjson -compare $(GATE_BASELINE) -max-regress $(GATE_REGRESS) -match '$(GATE_PATTERN)'

## fuzz-smoke: a short fuzz of the trace parser targets and of the
## results plane's record decoder (journal, merge and push lines).
fuzz-smoke:
	$(GO) test ./internal/trace/ -fuzz FuzzParseMalformed -fuzztime 10s
	$(GO) test ./internal/trace/ -fuzz FuzzReadAll -fuzztime 10s
	$(GO) test ./internal/experiments/ -run '^$$' -fuzz FuzzJournalLoad -fuzztime 10s

## perfbench-check: vet and self-test the benchmark. perfbench/ is its
## own module, so the root `./...` never compiles it; this catches an
## internal API change that breaks it. Same env as perfbench/run.sh.
perfbench-check:
	cd perfbench && GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off $(GO) vet ./... \
		&& GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off $(GO) test ./...

## figures: regenerate every table/figure CSV at small scale.
figures:
	$(GO) run ./cmd/figures -out results

## docs-check: every relative Markdown link in the docs set resolves.
docs-check:
	bash scripts/check-md-links.sh

## results-check: the results plane end to end — 2 journaled shards
## push to collectd and write per-shard JSONL; `figures -merge` of the
## shard files and collectd's CSVs must each be byte-identical to the
## single-process run, and -merge must refuse a shard whose tail was
## cut (OPERATIONS.md §4, §12).
results-check:
	bash scripts/results-check.sh

## proxy-check: live-tier smoke — start a sharded proxyd, run loadgen
## against it, assert a nonzero prefix-hit ratio and a clean SIGTERM
## drain (OPERATIONS.md §8).
proxy-check:
	bash scripts/proxy-check.sh

## load-check: open-loop smoke — schedule determinism across two dry
## runs, a short ramp sweep against proxyd with nonzero goodput and a
## stable live-capacity row schema, then a clean SIGTERM drain
## (OPERATIONS.md §9).
load-check:
	bash scripts/load-check.sh

## cluster-check: multi-node smoke — the deterministic in-process
## 3-edge + parent cluster test, then a live 3-proxyd ring driven
## round-robin by loadgen with verified digests, a nonzero peer byte
## fraction, and clean SIGTERM drains on every node (OPERATIONS.md §10).
cluster-check:
	bash scripts/cluster-check.sh

clean:
	rm -rf results
