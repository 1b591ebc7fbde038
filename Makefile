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
# tests, in tests, and outside tests and benchmark/, the interface
# counts of ROADMAP item 4 — methods on the shard set (over
# internal/orch's files, tests included) and exported methods on a
# shard — and the exported functions and methods of internal/graph's
# non-test files. Printed, not gated.
loc:
	@printf 'non-test Go lines:                    %s\n' "$$(find . -name '*.go' ! -name '*_test.go' | xargs wc -l | tail -1 | awk '{print $$1}')"
	@printf 'test Go lines:                        %s\n' "$$(find . -name '*_test.go' | xargs wc -l | tail -1 | awk '{print $$1}')"
	@printf 'non-test Go lines outside benchmark/: %s\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs wc -l | tail -1 | awk '{print $$1}')"
	@printf 'func (s *Sharded) methods:            %s\n' "$$(cat internal/orch/*.go | grep -c 'func (s \*Sharded)')"
	@printf 'exported Orchestrator methods:        %s\n' "$$(cat $$(ls internal/orch/*.go | grep -v '_test.go$$') | grep -c '^func ([a-z]* \*Orchestrator) [A-Z]')"
	@printf 'exported funcs in internal/graph:     %s\n' "$$(cat $$(ls internal/graph/*.go | grep -v '_test.go$$') | grep -cE '^func (\([^)]*\) )?[A-Z]')"

# What .github/workflows/ci.yml's build, test and bench-smoke jobs
# gate on. The test job's named steps rerun parts of `make race`
# uncached — the root package's count contracts among them
# (`go test -race -count=1 -run '^TestContract' .`).
ci: build fmt-check vet race bench
