// Command blubench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	blubench [-sf 0.05] [-seed N] [-devices 2] [-degree 24] [all|table1|fig5|fig6|fig7|table2|table3|fig8|fig9]...
//
// With no experiment arguments it runs everything in paper order.
//
// -serve holds the process open after the experiments with the admin
// HTTP surface (/metrics, /healthz, /debug/queries) mounted, so the full
// run's telemetry can be scraped; -metrics-json writes the same snapshot
// to a file and exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blugpu/internal/bench"
	"blugpu/internal/explain"
	"blugpu/internal/metrics"
	"blugpu/internal/trace"
)

func main() {
	sf := flag.Float64("sf", 0.05, "dataset scale factor")
	seed := flag.Uint64("seed", 20160626, "generator seed")
	devices := flag.Int("devices", 2, "number of simulated GPUs")
	degree := flag.Int("degree", 24, "intra-query parallelism")
	race := flag.Bool("race", false, "let the GPU moderator race a second kernel")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of every query to this file (load via chrome://tracing or ui.perfetto.dev)")
	serve := flag.String("serve", "", "after the experiments, serve /metrics, /healthz and /debug/queries on this host:port until interrupted")
	metricsJSON := flag.String("metrics-json", "", "write the final metrics snapshot as JSON to this file")
	explainOut := flag.String("explain", "", "run the explain suite and write its EXPLAIN ANALYZE reports as a JSON array to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: blubench [flags] [experiment]...\nexperiments: all %s\nflags:\n",
			strings.Join(bench.Experiments(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New()
	}

	start := time.Now()
	fmt.Printf("generating dataset (sf=%g, seed=%d)...\n", *sf, *seed)
	h, err := bench.NewHarness(bench.Config{
		SF: *sf, Seed: *seed, Devices: *devices, Degree: *degree, Race: *race,
		Trace: tracer,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "blubench:", err)
		os.Exit(1)
	}
	fmt.Printf("dataset ready: %.1f MB across %d tables (%.1fs)\n",
		float64(h.Data.TotalBytes())/(1<<20), len(h.Data.Tables), time.Since(start).Seconds())

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "blubench:", err)
		os.Exit(1)
	}
	args := flag.Args()
	if len(args) == 0 || (len(args) == 1 && args[0] == "all") {
		if err := h.All(os.Stdout); err != nil {
			fail(err)
		}
	} else {
		for _, name := range args {
			if err := h.Run(name, os.Stdout); err != nil {
				fail(err)
			}
		}
	}

	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := tracer.ExportChrome(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("trace: %d queries, %d spans -> %s\n", tracer.Queries(), tracer.Held(), *traceOut)
	}

	if *explainOut != "" {
		if err := writeExplainReports(h, *explainOut); err != nil {
			fail(err)
		}
	}

	if *metricsJSON != "" {
		f, err := os.Create(*metricsJSON)
		if err != nil {
			fail(err)
		}
		err = metrics.Collect(metrics.SourcesFromEngine(h.Eng)()).WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("metrics: snapshot -> %s\n", *metricsJSON)
	}

	if *serve != "" {
		srv, ln, err := metrics.Serve(*serve, metrics.SourcesFromEngine(h.Eng))
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Printf("serving http://%s/metrics until interrupted\n", ln.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
}

// explainSuite is the fixed query set the -explain flag audits: one
// plain group-by, one group-by feeding a sort+limit, and one filtered
// group-by, covering every operator the audit attributes.
var explainSuite = []struct{ name, sql string }{
	{"explain-groupby", "SELECT ss_store_sk, SUM(ss_net_paid) AS total FROM store_sales GROUP BY ss_store_sk"},
	{"explain-sort", "SELECT ss_item_sk, SUM(ss_net_paid) AS paid FROM store_sales GROUP BY ss_item_sk ORDER BY paid DESC LIMIT 10"},
	{"explain-filter", "SELECT sr_store_sk, SUM(sr_return_amt) AS total_ret, COUNT(*) AS cnt FROM store_returns WHERE sr_returned_date_sk BETWEEN 100 AND 400 GROUP BY sr_store_sk"},
}

// writeExplainReports runs the explain suite through EXPLAIN ANALYZE
// and writes the reports as one indented JSON array, the input format
// `blucheck explain` validates.
func writeExplainReports(h *bench.Harness, path string) error {
	reports := make([]*explain.Report, 0, len(explainSuite))
	for _, q := range explainSuite {
		rep, _, err := h.Eng.ExplainAnalyzeNamedCtx(context.Background(), q.name, q.sql)
		if err != nil {
			return fmt.Errorf("explain %s: %w", q.name, err)
		}
		reports = append(reports, rep)
	}
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("explain: %d reports -> %s\n", len(reports), path)
	return nil
}
