// Command bluserve runs the hybrid engine as a long-lived process with
// the serving and admin HTTP surfaces mounted on one listener:
//
//	POST /query       SQL in, JSON results out (admission-controlled;
//	                  "explain":true inlines the EXPLAIN ANALYZE report)
//	GET  /sessions    live session list
//	POST /drain       stop admitting, finish in-flight work
//	GET  /debug/serve admission counters (reconciliation snapshot)
//	GET  /debug/trace/{request-id}  one query's retained wall+vtime trace
//	GET  /debug/trace/slow          the top-K slowest retained traces
//	/metrics          Prometheus text exposition (deterministic ordering),
//	                  including blu_go_* runtime, blu_slo_* burn rates,
//	                  blu_prof_* per-class resource attribution and
//	                  blu_device_* utilization
//	/metrics.json     the same snapshot as structured JSON
//	/healthz          scheduler device health + circuit-breaker state +
//	                  firing alerts (a severity-page alert answers 503)
//	/debug/queries    per-query latency rollups + recent requests
//	/debug/explain    EXPLAIN ANALYZE decision audit for ?q=<sql>
//	/debug/alerts     alert rule states + recent transitions (JSON)
//	/debug/dash       self-contained HTML dashboard over the embedded
//	                  time-series history (inline SVG sparklines)
//	/api/v1/query_range  Prometheus-compatible range queries over the
//	                     embedded history (also /api/v1/query)
//	/debug/pprof/     live profiling (only with -pprof); CPU samples
//	                  carry blu_class/blu_phase/blu_request labels
//
// Usage:
//
//	bluserve [-addr 127.0.0.1:9090] [-sf 0.02] [-seed N] [-devices 2]
//	         [-degree 24] [-warmup 1] [-faults 0] [-queue 64]
//	         [-drain-ms 5000] [-slow-ms 250] [-qlog FILE]
//	         [-qlog-max-bytes 0] [-qlog-keep 3] [-obs-step 5s]
//	         [-obs-retention 15m] [-rules FILE] [-pprof] [-loop]
//
// On start it generates the dataset, runs -warmup passes over the BD
// Insights suite so the first scrape already has data, then serves.
// SIGTERM/SIGINT drain gracefully: in-flight queries finish (up to
// -drain-ms), queued queries are refused, nothing new is admitted.
// -loop keeps replaying the suite through the admission controller in
// the background so the blu_serve_* gauges move.
// An embedded obsd store self-scrapes the registry every -obs-step into
// bounded ring history and evaluates alert rules (-rules FILE, or the
// built-in defaults derived from the SLO and breaker semantics); a
// firing severity-page alert flips /healthz to 503 and halves admission
// capacity. -qlog-max-bytes caps the query log file with keep-N
// rotation (FILE -> FILE.1 -> ... -> FILE.<keep>).
// The process is serve.NewStack behind flags; `blucheck` (cmd/blucheck)
// verifies that same assembly end to end — `make smoke`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blugpu/internal/bench"
	"blugpu/internal/fault"
	"blugpu/internal/obsd"
	"blugpu/internal/qlog"
	"blugpu/internal/serve"
	"blugpu/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "listen address (host:port; port 0 picks a free port)")
	sf := flag.Float64("sf", 0.02, "dataset scale factor")
	seed := flag.Uint64("seed", 20160626, "generator seed")
	devices := flag.Int("devices", 2, "number of simulated GPUs")
	degree := flag.Int("degree", 24, "intra-query parallelism")
	warmup := flag.Int("warmup", 1, "passes over the BD Insights suite before serving")
	faults := flag.Float64("faults", 0, "uniform GPU fault-injection rate per site (0 disables)")
	queue := flag.Int("queue", 0, "admission queue capacity (0 = default)")
	drainMs := flag.Int("drain-ms", 5000, "graceful-drain deadline on shutdown, in milliseconds")
	slowMs := flag.Int("slow-ms", 0, "slow-query wall threshold in milliseconds (0 = default 250, negative disables)")
	qlogPath := flag.String("qlog", "", `structured query log destination: a file path, or "stderr"`)
	qlogMaxBytes := flag.Int64("qlog-max-bytes", 0, "rotate the qlog file when it would exceed this size (0 = never)")
	qlogKeep := flag.Int("qlog-keep", 0, "rotated qlog generations to keep (0 = default 3)")
	obsStep := flag.Duration("obs-step", 5*time.Second, "embedded time-series scrape interval")
	obsRetention := flag.Duration("obs-retention", 15*time.Minute, "embedded time-series history retention")
	rulesPath := flag.String("rules", "", "alert rules file (default: built-in rules derived from SLO/breaker semantics)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the admin surface")
	loop := flag.Bool("loop", false, "keep replaying the workload through the serving path in the background")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bluserve:", err)
		os.Exit(1)
	}

	cfg := bench.Config{SF: *sf, Seed: *seed, Devices: *devices, Degree: *degree}
	if *faults > 0 {
		cfg.Faults = fault.New(fault.Config{
			Seed: *seed, Reserve: *faults, H2D: *faults, D2H: *faults, Kernel: *faults,
		})
	}
	fmt.Printf("bluserve: generating dataset (sf=%g, seed=%d)...\n", *sf, *seed)
	h, err := bench.NewHarness(cfg)
	if err != nil {
		fail(err)
	}

	suite := workload.BDInsights()
	for i := 0; i < *warmup; i++ {
		if _, err := h.RunSet(suite); err != nil {
			fail(err)
		}
	}
	fmt.Printf("bluserve: warmup done (%d passes over %d queries)\n", *warmup, len(suite))

	opts := serve.StackOptions{
		Config: serve.Config{
			QueueCapacity: *queue,
			DrainDeadline: time.Duration(*drainMs) * time.Millisecond,
			SlowQuery:     time.Duration(*slowMs) * time.Millisecond,
		},
		ObsStep:      *obsStep,
		ObsRetention: *obsRetention,
		Background:   true,
		Pprof:        *pprofFlag,
	}
	switch *qlogPath {
	case "":
	case "stderr", "-":
		opts.Config.Log = qlog.New(os.Stderr)
	default:
		// With a byte cap the destination is a rotating file
		// (FILE -> FILE.1 -> ...); without one, a plain append.
		w, err := qlog.OpenFile(*qlogPath, qlog.Config{MaxBytes: *qlogMaxBytes, Keep: *qlogKeep})
		if err != nil {
			fail(err)
		}
		defer w.Close()
		opts.Config.Log = qlog.New(w)
	}
	if *rulesPath != "" {
		data, err := os.ReadFile(*rulesPath)
		if err != nil {
			fail(err)
		}
		if opts.Rules, err = obsd.ParseRules(data); err != nil {
			fail(err)
		}
	}

	st, err := serve.NewStack(h.Eng, opts)
	if err != nil {
		fail(err)
	}
	defer st.Close()
	base, err := st.Listen(*addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("bluserve: serving %s/query %s/metrics %s/healthz\n", base, base, base)

	if *loop {
		go func() {
			for !st.Server.Draining() {
				for _, q := range suite {
					_, err := st.Server.Do(context.Background(), serve.Request{
						Session: "loop", SQL: q.SQL, Class: q.Class, Name: q.ID,
					})
					// A shed replay is simply skipped: the loop is
					// background load, not a client that must succeed.
					var refused *serve.RefusedError
					if err != nil && !errors.As(err, &refused) {
						fmt.Fprintln(os.Stderr, "bluserve: workload loop:", err)
						return
					}
				}
				time.Sleep(time.Second)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nbluserve: draining")
	rep := st.Server.Drain(time.Duration(*drainMs) * time.Millisecond)
	fmt.Printf("bluserve: drained (flushed=%d forced=%d waited=%s)\n",
		rep.Flushed, rep.ForcedCancels, rep.Waited.Round(time.Millisecond))
}
