package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"slices"
	"strconv"

	"blugpu/internal/qlog"
	"blugpu/internal/serve"
	"blugpu/internal/workload"
)

// checkProf is the resource-attribution check: it posts identified
// queries across the BD Insights mix (so several workload classes fill
// accountant cells) and proves that the blu_prof_* ledger on /metrics
// reconciles against the query log per (class, phase) cell, that the
// device-utilization families are exposed, and that the standard CPU
// profiler is there for whoever asks: the stack is booted as deployed
// (background loop on, -pprof), and nothing in it may hold the process
// profiler when an operator's /debug/pprof/profile request arrives.
func checkProf(c *check) error {
	err := c.boot(sfSmall, false, serve.StackOptions{
		Config: serve.Config{SlowQuery: -1}, Background: true, Pprof: true,
	})
	if err != nil {
		return err
	}
	ids, err := c.postIdentified(9, false)
	if err != nil {
		return err
	}
	c.logf("%d identified queries ok", len(ids))

	// Ledger A: the query log's per-(class, phase) wall sums over the
	// posted IDs.
	recs, _, err := c.records()
	if err != nil {
		return err
	}
	logMs := map[[2]string]float64{} // [class, phase] -> summed ms
	logCount := map[string]int{}
	total := 0
	for _, rec := range recs {
		if rec.Event != qlog.EventQuery || !slices.Contains(ids, rec.RequestID) {
			continue
		}
		if rec.Outcome != qlog.OutcomeOK {
			return fmt.Errorf("%s: outcome %s (%s)", rec.RequestID, rec.Outcome, rec.Error)
		}
		total++
		logCount[rec.Class]++
		for phase, ms := range map[string]float64{
			"queue_wait": rec.Phases.QueueWaitMs, "admission": rec.Phases.AdmissionMs,
			"parse": rec.Phases.ParseMs, "plan": rec.Phases.PlanMs,
			"exec": rec.Phases.ExecMs, "serialize": rec.Phases.SerializeMs,
		} {
			logMs[[2]string{rec.Class, phase}] += ms
		}
	}
	if total != len(ids) {
		return fmt.Errorf("query log has %d ok records for posted IDs, want %d", total, len(ids))
	}

	// Ledger B: the scraped blu_prof_* families.
	scrape, err := c.scrape(
		"blu_prof_wall_seconds_total",
		"blu_prof_alloc_bytes_total",
		"blu_prof_phases_total",
		"blu_device_busy_ratio",
		"blu_device_busy_seconds_total",
		"blu_device_reserved_bytes",
	)
	if err != nil {
		return err
	}
	profWall := scrapeClassPhase(scrape, "blu_prof_wall_seconds_total")
	cells := 0
	for class, n := range logCount {
		// The accountant and the log were fed the same measured
		// durations; the only slack is qlog's microsecond rounding —
		// 0.5µs per record per phase.
		tol := 0.0005 * float64(n)
		for _, phase := range []string{"queue_wait", "admission", "parse", "plan", "exec", "serialize"} {
			k := [2]string{class, phase}
			got, ok := profWall[k]
			if !ok {
				return fmt.Errorf("blu_prof_wall_seconds_total missing cell class=%s phase=%s", class, phase)
			}
			if d := math.Abs(got*1000 - logMs[k]); d > tol {
				return fmt.Errorf("%s/%s: prof %.6fms vs qlog %.6fms (|Δ|=%.6f > %.6f)",
					class, phase, got*1000, logMs[k], d, tol)
			}
			cells++
		}
	}
	c.logf("/metrics reconciles with qlog (%d class/phase cells, %d records)", cells, total)

	// The one CPU profiler, under load: three back-to-back one-second
	// profiles must each come back whole. A second owner of the process
	// profiler would turn at least one into "cpu profiling already in
	// use" (a 500).
	stop, loadErr := make(chan struct{}), make(chan error, 1)
	go func() { loadErr <- c.postUntil(stop) }()
	profiled := 0
	for i := 0; i < 3 && err == nil; i++ {
		var n int
		n, err = c.cpuProfile()
		profiled += n
	}
	close(stop)
	if lerr := <-loadErr; err == nil {
		err = lerr
	}
	if err != nil {
		return err
	}
	c.logf("/debug/pprof/profile ok (3 consecutive profiles under load, %d bytes)", profiled)
	return nil
}

// postUntil posts BD Insights queries back to back until stop closes,
// so a profile taken meanwhile has labeled phases to sample.
func (c *check) postUntil(stop <-chan struct{}) error {
	queries := workload.BDInsights()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return nil
		default:
		}
		q := queries[i%len(queries)]
		code, _, body, err := c.post("/query", map[string]any{"sql": q.SQL, "name": q.ID, "session": c.suite}, "")
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("%s while profiling: HTTP %d, %v: %.200s", q.ID, code, err, body)
		}
	}
}

// cpuProfile takes a one-second CPU profile through the standard
// handler and returns its size; the body must gunzip to something.
func (c *check) cpuProfile() (int, error) {
	body, err := c.get("/debug/pprof/profile?seconds=1", http.StatusOK)
	if err != nil {
		return 0, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("/debug/pprof/profile: not gzip: %w", err)
	}
	if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
		return 0, fmt.Errorf("/debug/pprof/profile: %d profile bytes, %v", n, err)
	}
	return len(body), nil
}

// scrapeClassPhase extracts a {class,phase}-labeled family from an
// exposition text that already passed validation (so every value
// parses) into a map keyed by [class, phase].
func scrapeClassPhase(exposition []byte, family string) map[[2]string]float64 {
	re := regexp.MustCompile(`(?m)^` + family + `\{class="([^"]+)",phase="([^"]+)"\} (\S+)$`)
	out := map[[2]string]float64{}
	for _, m := range re.FindAllSubmatch(exposition, -1) {
		out[[2]string{string(m[1]), string(m[2])}], _ = strconv.ParseFloat(string(m[3]), 64)
	}
	return out
}
