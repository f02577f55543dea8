# Verification targets. `make check` is the one-command gate: tier-1
# (build + test) plus vet, the determinism linter, the race layer, the
# examples and a bench smoke pass.

GO ?= go
# Benchmark iteration budget for bench-json: 1x for a CI smoke record,
# something like 3x or a duration (2s) for a real perf-trajectory entry.
BENCHTIME ?= 1x
BENCH_JSON = BENCH_$(shell date +%Y-%m-%d).json
# The latest committed perf-trajectory entry (BENCH_*.json sort by date) is
# the baseline bench-check gates against.
BENCH_BASELINE = $(lastword $(sort $(wildcard BENCH_*.json)))
# Allowed ns/op regression for bench-check, in percent. Wide by default:
# ns/op on shared CI runners is noisy and the real contract is the
# allocation gate (alloc-tol 0 — any allocs/op growth on the pooled replay
# path fails). Tighten locally: `make bench-check NS_TOL=15`.
NS_TOL ?= 300
# The benchmarks bench-check gates: the pooled replay path end to end.
BENCH_GATE = BenchmarkFig10 BenchmarkTraceReplay BenchmarkResilienceReport \
	BenchmarkReplayReuse/fresh BenchmarkReplayReuse/pooled BenchmarkEngineRaw

.PHONY: all build test race vet lint resilience chaos examples bench-smoke bench-json bench-check golden loc check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The sweep runner introduced real concurrency; the race layer is part of
# full verification.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The determinism-and-contract linter (see DESIGN.md §8 and §12 and
# internal/simlint): vet, module verification (the module is deliberately
# dependency-free), the simlint analyzers over the whole tree — determinism
# checks plus the hotalloc/fieldcover/poolsafe contract analyzers — and a
# focused race pass over the concurrency-bearing packages. CI runs simlint
# with -json/-github on top for inline PR annotations.
lint:
	$(GO) vet ./...
	$(GO) mod verify
	$(GO) run ./cmd/simlint ./...
	$(GO) test -race ./internal/sweep/... ./internal/simclock/...

# The resilience layer under the race detector: the gray-failure and
# crash-replay goldens (byte-identical serial vs parallel), the watchdog
# partial-results contract, and the gray/blacklist/speculation suites in
# core and mapreduce.
resilience:
	$(GO) test -race -count=1 -run 'TestGolden|TestResilience|TestRunResilience|TestGray|TestBlacklist|TestWatchdog|TestClone|TestSpecul' ./internal/figures/ ./internal/core/ ./internal/mapreduce/

# One iteration of every benchmark, including the sweep serial/parallel/
# memoized comparison and the ablation benches (their embedded assertions
# run even at -benchtime=1x).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Record a perf-trajectory entry: run every benchmark with allocation
# counters and convert the output to BENCH_<date>.json (ns/op, allocs/op and
# custom metrics like events/sec). CI's bench-smoke job runs this at
# BENCHTIME=1x and uploads the artifact; for a real measurement use e.g.
# `make bench-json BENCHTIME=3x`.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... > bench.out
	$(GO) run ./cmd/benchjson < bench.out > $(BENCH_JSON)
	@rm -f bench.out
	@echo wrote $(BENCH_JSON)

# Gate the gated benchmarks against the latest committed BENCH_*.json:
# rerun them, convert to JSON, and diff with zero allocation tolerance (see
# cmd/benchjson -diff). Fails the build when allocs/op grows at all or ns/op
# regresses beyond NS_TOL percent. EngineRaw is a ~16ns op, so it always
# runs at a fixed iteration count — timing 3 iterations would be pure clock
# noise at smoke BENCHTIME settings.
bench-check:
	@test -n "$(BENCH_BASELINE)" || { \
		echo "bench-check: no BENCH_*.json baseline found in the repo root."; \
		echo ""; \
		echo "bench-check diffs a fresh benchmark run against the newest committed"; \
		echo "perf-trajectory entry; without one there is nothing to gate against."; \
		echo "Record a baseline on a quiet machine and commit it:"; \
		echo ""; \
		echo "    make bench-json BENCHTIME=3x    # writes BENCH_$$(date +%Y-%m-%d).json"; \
		echo "    git add BENCH_*.json"; \
		echo ""; \
		exit 1; }
	$(GO) test -run '^$$' -bench '^(BenchmarkFig10|BenchmarkTraceReplay|BenchmarkResilienceReport|BenchmarkReplayReuse)$$' -benchmem -benchtime $(BENCHTIME) . > bench-check.out
	$(GO) test -run '^$$' -bench '^BenchmarkEngineRaw$$' -benchmem -benchtime 200000x . >> bench-check.out
	$(GO) run ./cmd/benchjson < bench-check.out > bench-check.json
	@rm -f bench-check.out
	$(GO) run ./cmd/benchjson -diff -ns-tol $(NS_TOL) -alloc-tol 0 $(BENCH_BASELINE) bench-check.json $(BENCH_GATE)
	@rm -f bench-check.json

# Seeded chaos-search smoke: a 64-round campaign of randomized fault
# schedules replayed with the invariant layer attached, plus the self-test
# that the campaign catches (and minimizes) the deliberately seeded
# silent-map-loss defect. Deterministic per seed — see DESIGN.md §13.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/
	$(GO) run ./cmd/chaoshunt -seed 1 -rounds 64 -budget events=5e7,simtime=720h

# Run end to end the examples that consume internal APIs nothing else
# outside their packages does: minimr and pipeline implement engine.Mapper
# (the only Mapper implementations outside internal/engine), and fbtrace
# reads figures.TraceResult (its only consumer outside internal/figures).
examples:
	$(GO) run ./examples/minimr
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/fbtrace

# Refresh the golden figure snapshots after an intentional model change.
golden:
	$(GO) test ./internal/figures -run TestGolden -update

# Non-test Go lines per package (every line of the package's build files,
# comments and blanks included) and their total: the figure behind the line
# deltas recorded in CHANGES.md.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | \
	while read -r pkg dir files; do \
		printf '%6d  %s\n' "$$(cd "$$dir" && cat $$files </dev/null | wc -l)" "$$pkg"; \
	done | awk '{ print; total += $$1 } END { printf "%6d  total\n", total }'

check: build vet lint test race resilience chaos examples bench-smoke
