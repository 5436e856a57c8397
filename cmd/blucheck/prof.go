package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"regexp"
	"slices"
	"strconv"

	"blugpu/internal/qlog"
	"blugpu/internal/serve"
)

// checkProf is the resource-attribution check: it posts identified
// queries across the BD Insights mix (so several workload classes fill
// accountant cells) and proves that the blu_prof_* ledger on /metrics
// reconciles against the query log per (class, phase) cell, that the
// device-utilization families are exposed, and that /debug/prof/capture
// and /debug/prof/hotspots serve.
//
// The background loops stay off: the periodic captor would contend with
// the on-demand capture for the process profiler (a 409, not a capture).
func checkProf(c *check) error {
	if err := c.boot(sfSmall, false, serve.StackOptions{Config: serve.Config{SlowQuery: -1}}); err != nil {
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
		"blu_prof_cpu_seconds_total",
		"blu_prof_alloc_bytes_total",
		"blu_prof_phases_total",
		"blu_prof_captures_total",
		"blu_device_busy_ratio",
		"blu_device_busy_seconds_total",
		"blu_device_reserved_bytes",
	)
	if err != nil {
		return err
	}
	profWall := scrapeClassPhase(scrape, "blu_prof_wall_seconds_total")
	profCPU := scrapeClassPhase(scrape, "blu_prof_cpu_seconds_total")
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
			// CPU attribution is statistical (profiler sampling) — the
			// account must exist and be non-negative, nothing more.
			if cpu, ok := profCPU[k]; ok && cpu < 0 {
				return fmt.Errorf("%s/%s: negative CPU account %g", class, phase, cpu)
			}
			cells++
		}
	}
	c.logf("/metrics reconciles with qlog (%d class/phase cells, %d records)", cells, total)

	// The capture surface: an on-demand bounded capture, then the
	// digest over the ring.
	capture, err := c.get("/debug/prof/capture?window=100ms", http.StatusOK)
	if err != nil {
		return err
	}
	c.kept["capture.json"] = capture
	var capResp struct {
		Captures uint64 `json:"captures"`
		CPUBytes int    `json:"cpu_bytes"`
	}
	if err := json.Unmarshal(capture, &capResp); err != nil {
		return fmt.Errorf("/debug/prof/capture: bad JSON: %w", err)
	}
	if capResp.Captures < 1 || capResp.CPUBytes == 0 {
		return fmt.Errorf("/debug/prof/capture: empty capture: %s", capture)
	}
	hotspots, err := c.get("/debug/prof/hotspots", http.StatusOK)
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(hotspots, []byte("prof hotspots:")) {
		return fmt.Errorf("/debug/prof/hotspots: unexpected body: %.120s", hotspots)
	}
	c.logf("/debug/prof ok (capture %d bytes CPU, digest %d bytes)", capResp.CPUBytes, len(hotspots))
	return nil
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
