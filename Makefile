GO ?= go

# Packages with parallel host-side execution; the race target drives the
# differential tests (degrees 1/2/8), the scheduler/fault stress tests and
# the concurrent span-tracer stress test under the race detector.
PARALLEL_PKGS = ./internal/parallel ./internal/columnar ./internal/expr \
                ./internal/evaluator ./internal/bsort ./internal/engine \
                ./internal/sched ./internal/fault ./internal/trace \
                ./internal/monitor ./internal/metrics ./internal/fusion \
                ./internal/serve ./internal/prof ./internal/hostmem \
                ./internal/obsd

.PHONY: build vet test race bench check trace-smoke metrics-smoke explain-smoke bench-gate bench-smoke fuse-smoke serve-smoke qlog-smoke prof-smoke dash-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(PARALLEL_PKGS)

bench:
	$(GO) test -bench 'ParallelGather|PartialKeyBuild' -benchmem -run '^$$' \
		./internal/columnar ./internal/bsort

# End-to-end tracing smoke: run one small traced experiment through
# blubench and validate the exported JSON against the trace-event schema.
trace-smoke:
	$(GO) run ./cmd/blubench -sf 0.004 -trace /tmp/blu-trace-smoke.json fig5 > /dev/null
	$(GO) run ./cmd/tracecheck /tmp/blu-trace-smoke.json

# End-to-end metrics smoke: boot bluserve, warm it up, scrape every admin
# endpoint against the live server and validate the exposition syntax.
# sf=0.02 is the smallest scale where the optimizer routes work to the
# GPU, so the scrape covers the kernel/transfer/scheduler families.
metrics-smoke:
	$(GO) run ./cmd/bluserve -sf 0.02 -smoke

# End-to-end explain smoke: run the EXPLAIN ANALYZE suite through
# blubench and validate every report — schema, decode, and full
# reconciliation (no unattributed operators, no orphaned device events,
# no monitor-vs-span counter mismatches).
explain-smoke:
	$(GO) run ./cmd/blubench -sf 0.004 -explain /tmp/blu-explain-smoke.json fig5 > /dev/null
	$(GO) run ./cmd/explaincheck /tmp/blu-explain-smoke.json

# Perf-regression gate: run the benchdiff suite and compare the modeled
# (deterministic) timings and H2D bytes against the committed
# BENCH_0.json baseline.
bench-gate:
	$(GO) run ./cmd/benchdiff -out /tmp/blu-bench-current.json

# Wall-clock smoke: one short pass of the repository benchmark
# (benchmark/README.md) — builds bluserve, drives every workload over
# HTTP and checks each answer against the reference engine; exits
# non-zero on a wrong answer. The numbers it prints are too short to
# compare; `go run ./benchmark` is where wall-clock numbers come from.
bench-smoke:
	$(GO) run ./benchmark -quick

# Data-path fusion smoke: run the BD + ROLAP suites through a fused and
# an unfused engine over the same dataset, diff every result table
# (floats to 1e-9 relative, everything else exact), and assert the fused run moved fewer H2D bytes.
fuse-smoke:
	$(GO) run ./cmd/fusecheck

# End-to-end serving smoke: boot bluserve with a deliberately small
# admission queue, drive a multi-user mix through POST /query over HTTP
# (retrying shed 429s), run one inline EXPLAIN ANALYZE, drain, verify
# the post-drain 503, and reconcile the admission ledger via
# /debug/serve.
serve-smoke:
	$(GO) run ./cmd/bluserve -sf 0.02 -queue 4 -serve-smoke

# Wall-clock observability smoke: post identified queries over HTTP and
# prove the request-ID join end to end — query log (validated, phases
# summing to the wall total), /debug/trace/{id} Chrome JSON, EXPLAIN
# ANALYZE request_id, and the blu_go_*/blu_slo_* metric families. On
# failure the /metrics scrape, slow traces and query log land in
# /tmp/blu-qlog-artifacts for CI upload.
qlog-smoke:
	$(GO) run ./cmd/qlogcheck -artifacts /tmp/blu-qlog-artifacts

# Resource-attribution smoke: post identified queries with the prof
# accountant and profile captor attached, then prove the blu_prof_*
# ledger on /metrics reconciles against the query log per class and
# phase, and that /debug/prof/capture + /debug/prof/hotspots serve. On
# failure the scrape, digest, capture and query log land in
# /tmp/blu-prof-artifacts for CI upload.
prof-smoke:
	$(GO) run ./cmd/profcheck -artifacts /tmp/blu-prof-artifacts

# Embedded-observability smoke: boot the serving stack with an obsd
# store on an injected clock, trip every circuit breaker, and prove the
# AllBreakersOpen page alert fires within one `for:` window, resolves
# after recovery, and shows the full lifecycle on /debug/alerts,
# blu_alerts_*, the query log and /debug/dash — byte-identically across
# two runs. On failure the alert JSON, dash HTML, scrape and query log
# land in /tmp/blu-dash-artifacts for CI upload.
dash-smoke:
	$(GO) run ./cmd/dashcheck -artifacts /tmp/blu-dash-artifacts

check: vet test race trace-smoke metrics-smoke explain-smoke fuse-smoke serve-smoke qlog-smoke prof-smoke dash-smoke bench-gate bench-smoke
