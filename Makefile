GO ?= go

.PHONY: all build test race bench fmt fmt-check vet loc ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration per benchmark: a smoke that perf-critical paths still
# run, not a measurement. Use `go test -bench=. -benchtime=...` by hand
# for real numbers.
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' ./...

# The repository's one repeatable benchmark (BENCHMARK.json,
# benchmark/README.md): four closed-loop HTTP workloads, each ending in
# two JSON lines. BENCHMARK_FLAGS passes flags through, e.g.
# `make benchmark BENCHMARK_FLAGS='--workload bigpool_fill --trace 1'`.
.PHONY: benchmark
benchmark:
	$(GO) run ./benchmark $(BENCHMARK_FLAGS)

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The size the north star tracks (ROADMAP aim 2): Go lines outside
# tests, outside and inside benchmark/, and in tests; the interface
# counts of ROADMAP item 11 — methods on the shard set (over
# internal/orch's files, tests included), exported methods on the
# unexported shard and on the facade's Architecture — and the exported functions and
# methods of internal/graph's non-test files. TestSourceSizeRatchet computes them and fails when one
# rises above testdata/size_ratchet.txt; this runs it verbosely, so it
# prints them and fails with it.
loc:
	$(GO) test -count=1 -run '^TestSourceSizeRatchet$$' -v .

# What .github/workflows/ci.yml's build, test and bench-smoke jobs
# gate on. The test job's named steps rerun parts of `make race`
# uncached — the root package's count contracts among them
# (`go test -race -count=1 -run '^TestContract' .`).
ci: build fmt-check vet race bench
