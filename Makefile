GO ?= go

# Packages with parallel host-side execution; the race target drives the
# differential tests (degrees 1/2/8), the scheduler/fault stress tests,
# the concurrent span-tracer stress test and the device kernels (atomics
# and spin locks on goroutines) under the race detector.
PARALLEL_PKGS = ./internal/parallel ./internal/columnar ./internal/expr \
                ./internal/evaluator ./internal/bsort ./internal/engine \
                ./internal/sched ./internal/fault ./internal/trace \
                ./internal/monitor ./internal/metrics ./internal/fusion \
                ./internal/serve ./internal/prof ./internal/hostmem \
                ./internal/obsd ./internal/groupby ./internal/gpu

# The one directory `make check` writes outside the checkout: blubench's
# exports in, blucheck's failure evidence and benchdiff's fresh snapshot
# out (CI uploads it when the job fails).
SMOKE_DIR ?= $(or $(TMPDIR),/tmp)/blucheck

.PHONY: build vet test race bench check smoke bench-gate bench-smoke orphans fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(PARALLEL_PKGS)

# Host-path micro-rulers (1M rows or groups, allocations reported):
# gathers, the partial key buffer build, the expression kernels, the fusion
# cache's content key, the join probe against a resident key index, the
# typed group-by output and the flat sort-key extractor.
bench:
	$(GO) test -bench 'ParallelGather|PartialKeyBuild|Predicate|ColumnKey|JoinProbe|AggOutput|SortKeys' -benchmem -run '^$$' \
		./internal/columnar ./internal/bsort ./internal/expr ./internal/fusion ./internal/engine

# Five seconds of native fuzzing each: WHERE clauses mutated from the
# workload's own, kernels held to the test-only row interpreter
# (internal/expr); then whole statements through parse → plan, which must
# not panic and must survive print → re-parse (internal/plan); then join
# key columns mutated from the differential cases', index + probe held to
# the test-only map join (internal/engine — its inputs are byte slices,
# which the fuzzer would minimize for a minute apiece unless capped); then
# tables and ASC/DESC key lists, the flat sort-key buffer held segment by
# segment to the test-only byte keys (internal/engine, capped likewise).
fuzz-smoke:
	$(GO) test ./internal/expr -run '^$$' -fuzz FuzzKernelsMatchReference -fuzztime 5s
	$(GO) test ./internal/plan -run '^$$' -fuzz FuzzParsePlan -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzJoinMatchesReference -fuzztime 5s -fuzzminimizetime 200x
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzSortKeysMatchReference -fuzztime 5s -fuzzminimizetime 200x

# End-to-end smoke: blubench exports one small traced experiment and
# its EXPLAIN ANALYZE reports (so the binary's own export path is what
# gets checked), then blucheck runs every suite — the two file
# validators, the fused-vs-staged differential, and the serving suites,
# each against serve.NewStack, the assembly bluserve runs. See
# cmd/blucheck for what each suite asserts; a failing serving suite
# leaves its evidence under $(SMOKE_DIR)/<suite>/.
# suites: trace explain fuse metrics serve qlog prof dash
smoke:
	mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/blubench -sf 0.004 -trace $(SMOKE_DIR)/trace.json -explain $(SMOKE_DIR)/explain.json fig5 > /dev/null
	$(GO) run ./cmd/blucheck -artifacts $(SMOKE_DIR) all

# Perf-regression gate: run the benchdiff suite and compare the modeled
# (deterministic) timings and H2D bytes against the committed
# BENCH_0.json baseline.
bench-gate:
	mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/benchdiff -out $(SMOKE_DIR)/bench-current.json

# Wall-clock smoke: one short pass of the repository benchmark
# (benchmark/README.md) — builds bluserve, drives every workload over
# HTTP and checks each answer against the reference engine; exits
# non-zero on a wrong answer. The numbers it prints are too short to
# compare; `go run ./benchmark` is where wall-clock numbers come from.
bench-smoke:
	$(GO) run ./benchmark -quick

# Orphan gate: every internal package must be reachable from a shipped
# binary (cmd/*) or the repository benchmark. One that only tests, Go
# benchmarks or examples import is wired in on measured merit or deleted
# (ROADMAP aim 2). Prints the offenders, and nothing when there are none.
orphans:
	@mkdir -p $(SMOKE_DIR)
	@$(GO) list ./internal/... | sort > $(SMOKE_DIR)/pkgs-all.txt
	@$(GO) list -deps ./cmd/... ./benchmark | grep '^blugpu/internal' | sort > $(SMOKE_DIR)/pkgs-reached.txt
	@orphans=$$(comm -23 $(SMOKE_DIR)/pkgs-all.txt $(SMOKE_DIR)/pkgs-reached.txt); \
		if [ -n "$$orphans" ]; then echo "$$orphans"; exit 1; fi

check: vet orphans test race fuzz-smoke smoke bench-gate bench-smoke
