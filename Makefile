GO ?= go

# Packages with parallel host-side execution; the race target drives the
# differential tests (degrees 1/2/8), the scheduler/fault stress tests,
# the concurrent span-tracer stress test and the group-by's partitioned
# aggregation loop — the one the CPU path and every device kernel run —
# under the race detector, then internal/bench's fault sweeps and fault
# attribution tests, which drive the engine's device contract (placement,
# cross-device retry, host fallback) for the staged group-by, the fused
# chain and sort jobs.
PARALLEL_PKGS = ./internal/parallel ./internal/columnar ./internal/expr \
                ./internal/evaluator ./internal/bsort ./internal/engine \
                ./internal/sched ./internal/fault ./internal/trace \
                ./internal/monitor ./internal/metrics ./internal/fusion \
                ./internal/serve ./internal/prof ./internal/hostmem \
                ./internal/obsd ./internal/groupby ./internal/gpu

.PHONY: build vet test race cpus bench check bench-smoke orphans fuzz-smoke size modeled-rises event-moves unlinked

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(PARALLEL_PKGS)
	$(GO) test -race -run 'FaultSweep|FusedFault|TraceFaultAttribution' ./internal/bench

# Host independence: the packages whose answers and modeled times must
# not depend on the host's core count, at GOMAXPROCS 1, 2 and 8 —
# TestOracleMatrix's twenty-one runs, the bucketed merge and radix pass
# against their serial forms, the fusion cache. Answers and modeled time
# are functions of the configured degree alone.
CPU_PKGS = ./internal/engine ./internal/groupby ./internal/bsort ./internal/fusion

cpus:
	$(GO) test -cpu 1,2,8 $(CPU_PKGS)

# Host-path micro-rulers (1M rows or groups, allocations reported):
# gathers, the partial key buffer build, the shared radix pass, the
# expression kernels, the fusion cache's column key and its fill/hit of a
# resident column, the HASH evaluator's KMV sketch (11 000 hashes over 6,
# 10 000 and 72 000 distinct values), the group-by on the CPU path and on
# the device at 16 and 500 000 groups, the staged device group-by (claims
# and transfers, no input copy), the join probe against a resident key
# index (plain, with a 20 % build mask, and through a 60 % row list), a
# three-join star over a 60 % fact list with 20 % dimension masks and the
# same star with only its top join masked (selective-last, which runs
# first), the typed group-by output, the wide-key group-by from the
# evaluator chain through the typed output (1M rows, a string, int and
# float key, 65 536 groups), the flat sort-key extractor (NULLs in
# every key column, and none) and the top-k selection (1M two-segment
# keys, k = 100, degree 8) against the full sort a LIMIT 100 would cut.
bench:
	$(GO) test -bench 'ParallelGather|PartialKeyBuild|RadixPass|Predicate|ColumnKey|CacheEnsure|Sketch|RunCPU|RunGPU|JoinProbe|StarJoin|AggOutput|WideKeyGroupBy|SortKeys|TopK' -benchmem -run '^$$' \
		./internal/columnar ./internal/bsort ./internal/expr ./internal/fusion ./internal/kmv ./internal/groupby ./internal/engine

# Five seconds of native fuzzing each: WHERE clauses mutated from the
# workload's own, kernels held to the test-only row interpreter
# (internal/expr); then hash streams cut into chunks, the merged KMV
# sketch held to a sort-and-deduplicate reference (internal/kmv, a
# byte-slice target capped like the engine's below); then grouping-key
# column mixes — strings, ints of spans around 32, 63 and 64 bits and
# floats, with NULLs, ±0 and NaN, over the table and through a row list —
# packed at degrees 1 and 8, the key words held to the row-at-a-time
# packer and their decode to the value-at-a-time one (internal/evaluator,
# capped likewise); then whole
# statements through parse → plan → WHERE placement over a fixed
# three-table catalog, which must not panic, must survive print →
# re-parse, and must place every conjunct exactly once, on a table that
# owns all its columns (internal/plan); then join
# key columns mutated from the differential cases', index + probe — one
# join, and two two-join chains over its parts, one whose selective second
# join runs first — held to the test-only map join (internal/engine — its inputs are byte slices,
# which the fuzzer would minimize for a minute apiece unless capped); then
# tables and ASC/DESC key lists, the flat sort-key buffer held segment by
# segment to the NULL-aware view of the test-only byte keys (no flag for a
# column with no NULL) and its sort's permutation to a stable sort of the
# byte keys themselves (internal/engine, capped likewise); then those
# tables tiled up to eight times, so every key repeats and the selection
# spans several workers, and a k in [1, n], bsort.TopK at degrees 1 and 8
# held to the first k of the sort's permutation and of the stable sort of
# the byte keys (internal/engine, capped likewise);
# then alert-rules files through the parser into a store, query
# expressions through the parser into a range query on an empty store
# (internal/obsd), and query-log streams through the decoder and back
# (internal/qlog) — none may panic; the two byte-slice targets are capped
# like the engine's.
fuzz-smoke:
	$(GO) test ./internal/expr -run '^$$' -fuzz FuzzKernelsMatchReference -fuzztime 5s
	$(GO) test ./internal/kmv -run '^$$' -fuzz FuzzSketchMatchesReference -fuzztime 5s -fuzzminimizetime 200x
	$(GO) test ./internal/evaluator -run '^$$' -fuzz FuzzKeyWordsMatchReference -fuzztime 5s -fuzzminimizetime 200x
	$(GO) test ./internal/plan -run '^$$' -fuzz FuzzParsePlan -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzJoinMatchesReference -fuzztime 5s -fuzzminimizetime 200x
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzSortKeysMatchReference -fuzztime 5s -fuzzminimizetime 200x
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzTopKMatchesSort -fuzztime 5s -fuzzminimizetime 200x
	$(GO) test ./internal/obsd -run '^$$' -fuzz FuzzParseRules -fuzztime 5s -fuzzminimizetime 200x
	$(GO) test ./internal/obsd -run '^$$' -fuzz FuzzParseExpr -fuzztime 5s
	$(GO) test ./internal/qlog -run '^$$' -fuzz FuzzQlogDecode -fuzztime 5s -fuzzminimizetime 200x

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
	@reached=$$($(GO) list -deps ./cmd/... ./benchmark | grep '^blugpu/internal'); \
		orphans=$$($(GO) list ./internal/... | grep -vxF -e "$$reached"); \
		if [ -n "$$orphans" ]; then echo "$$orphans"; exit 1; fi

# Source size: non-test and test lines per package (directory) under cmd/
# and internal/, then the subtotal of the seven observability packages
# and the totals — the figures a change that deletes code quotes before
# and after. It runs in no gate.
OBS_PKGS = metrics obsd explain monitor trace qlog prof
size:
	@find cmd internal -name '*.go' -exec wc -l {} + | awk -v obs="$(OBS_PKGS)" '$$2 != "total" { \
		d = $$2; sub(/\/[^\/]*$$/, "", d); t = ($$2 ~ /_test\.go$$/) ? 2 : 1; \
		n[d, t] += $$1; sum[t] += $$1; dirs[d] = 1 } \
		END { printf "%-24s %8s %8s\n", "package", "non-test", "test"; \
		for (d in dirs) printf "%-24s %8d %8d\n", d, n[d, 1], n[d, 2] | "sort"; close("sort"); \
		k = split(obs, o, " "); for (i = 1; i <= k; i++) for (t = 1; t <= 2; t++) os[t] += n["internal/" o[i], t]; \
		printf "%-24s %8d %8d\n", "observability", os[1], os[2]; \
		printf "%-24s %8d %8d\n", "total", sum[1], sum[2] }'

# Modeled-time moves against a revision: every statement row of
# internal/bench/testdata/modeled.golden in the working tree that moved
# against REV's (default HEAD), GPU on and off, with the delta in ms; it
# exits non-zero when one rose (scripts/modeled_rises.sh). Not part of
# check: a pull request's CI prints it against the base branch.
REV ?= HEAD
modeled-rises:
	sh scripts/modeled_rises.sh $(REV)

# Device-event moves against a revision: for each "degree D nofusion B
# [faults]" section of internal/engine/testdata/device_events.golden, the
# statement and counter rows that moved against REV's, the first of them
# and how many (scripts/event_moves.sh). Not part of check: a pull
# request's CI prints it against the base branch.
event-moves:
	sh scripts/event_moves.sh $(REV)

# Functions no shipped binary links: every function and method declared
# in a non-test file under internal/ that go tool nm finds in none of the
# cmd/* binaries and ./benchmark, built with inlining off, with its file,
# line and length (scripts/unlinked.sh). What it lists only tests reach.
# Not part of check; it gates nothing.
unlinked:
	sh scripts/unlinked.sh

check: vet orphans test race cpus fuzz-smoke bench-smoke
