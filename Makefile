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

# Repair-reconciliation smoke: recovery latency after a slice-OPS
# failure at 50+ chains must not scale with the fleet size and must
# leave untouched chains alone. Writes BENCH_repair.json.
.PHONY: bench-repair
bench-repair:
	$(GO) run ./cmd/alvc-bench -repair -chains 50 -json

# Resilience smoke, anchored on rule churn and protection health: a
# standby swap runs zero shortest-path computations; the protected
# fleet recovers with zero inline standby replans, fewer path
# computations and no more flow-rule churn per chain than the cold
# fleet; the protection gap a repair opens closes after the outage
# heals and one optimizer drain; a rack event visits each chain at
# most once. Writes BENCH_resilience.json.
.PHONY: bench-resilience
bench-resilience:
	$(GO) run ./cmd/alvc-bench -resilience -chains 25 -json

# Optimizer smoke: a rack event must ask zero standby searches, and
# compute fewer paths, on the recovery call with the background engine
# attached (vs dozens inline), every affected chain must be
# re-protected after a drain (disjoint again once the outage heals),
# and the λ-defrag pass must compact fragmented wavelengths. Writes
# BENCH_optimizer.json.
.PHONY: bench-optimizer
bench-optimizer:
	$(GO) run ./cmd/alvc-bench -optimizer -chains 16 -json

# Routing fast-path smoke: a warm ComputePath over the epoch-cached
# frozen snapshot must be >= 2x faster and >= 5x lighter in allocations
# than the cold per-query graph rebuild, with zero rebuilds on an
# unchanged topology. Writes BENCH_path.json.
.PHONY: bench-path
bench-path:
	$(GO) run ./cmd/alvc-bench -path -json

# Failure-storm smoke: a multi-tray link storm (one primary + one
# standby transit link per victim chain, SRLG-grouped) recovered
# per-event vs as one debounced batch. Contract: zero routing-graph
# rebuilds during either storm (liveness patches the cached snapshot's
# overlay in place), the batch >= 2x faster than per-event handling,
# every victim repaired exactly once with no failures, the optimizer's
# storm mode coalescing the re-protect backlog by failure domain, and
# the drain running no Yen search and at most one standby search per
# segment per plan. Writes BENCH_storm.json; exits non-zero on any
# violation.
.PHONY: bench-storm
bench-storm:
	$(GO) run ./cmd/alvc-bench -storm -chains 160 -json

# Sharding smoke: provision + batch-repair the same 600-tenant fleet at
# 1/4/16 shards. Contract: no shard count below half of one shard's
# provision or repair throughput (sharding stopped buying planning
# speed when standby search stopped scaling with the pool; see
# scalebench.go), zero routing-graph rebuilds during provisioning, zero
# failed repairs. Writes BENCH_scale.json; exits non-zero on any
# violation.
.PHONY: bench-scale
bench-scale:
	$(GO) run ./cmd/alvc-bench -scale -chains 600 -json

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
# tests, in tests, and outside tests and benchmark/. Printed, not gated.
loc:
	@printf 'non-test Go lines:                    %s\n' "$$(find . -name '*.go' ! -name '*_test.go' | xargs wc -l | tail -1 | awk '{print $$1}')"
	@printf 'test Go lines:                        %s\n' "$$(find . -name '*_test.go' | xargs wc -l | tail -1 | awk '{print $$1}')"
	@printf 'non-test Go lines outside benchmark/: %s\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs wc -l | tail -1 | awk '{print $$1}')"

# Exactly what .github/workflows/ci.yml runs.
ci: build fmt-check vet race bench bench-repair bench-resilience bench-optimizer bench-path bench-scale bench-storm
