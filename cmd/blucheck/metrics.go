package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"blugpu/internal/metrics"
	"blugpu/internal/serve"
)

// groupBySQL is the statement audited through /debug/explain.
const groupBySQL = "SELECT ss_store_sk, SUM(ss_net_paid) AS total FROM store_sales GROUP BY ss_store_sk"

// checkMetrics scrapes every admin endpoint of a warmed-up server with
// its background loops running, as deployed: /metrics must parse as
// exposition format and cover the acceptance families, /healthz must
// answer 200 while healthy AND 503 once every breaker is tripped
// (recovering to 200 afterwards), /debug/queries must show the
// warmed-up queries, and the alert, dashboard, range-query and explain
// surfaces must each answer with their own content.
func checkMetrics(c *check) error {
	if err := c.boot(sfGPU, true, serve.StackOptions{Background: true}); err != nil {
		return err
	}
	// One query through the serving path first: the blu_prof_* wall
	// ledger only carries series for classes that actually ran, and the
	// warm-up pass goes straight to the engine, not through admission.
	if _, err := c.postIdentified(1, false); err != nil {
		return err
	}
	body, err := c.scrape(
		"blu_kernel_executions_total",
		"blu_transfer_bytes_total",
		"blu_sched_placements_total",
		"blu_device_memory_total_bytes",
		"blu_query_latency_seconds_bucket",
		"blu_optimizer_decisions_total",
		"blu_kmv_relative_error_count",
		"blu_serve_queue_depth",
		"blu_serve_submitted_total",
		"blu_serve_panics_total",
		"blu_go_goroutines",
		"blu_go_gc_cycles_total",
		"blu_prof_wall_seconds_total",
		"blu_device_busy_ratio",
		"blu_device_reserved_bytes",
		"blu_obsd_scrapes_total",
		"blu_alerts_rules",
	)
	if err != nil {
		return err
	}
	c.logf("/metrics ok (%d bytes, valid exposition)", len(body))

	// /healthz around a fleet failure: all devices quarantined must turn
	// it into a 503 (the same signal the admission shedder keys off).
	if err := c.expect("/healthz", `"status"`); err != nil {
		return err
	}
	c.tripBreakers()
	body, err = c.get("/healthz", http.StatusServiceUnavailable)
	if err != nil {
		return fmt.Errorf("with all breakers open: %w", err)
	}
	if !bytes.Contains(body, []byte(metrics.HealthUnhealthy)) {
		return fmt.Errorf("/healthz with all breakers open: no unhealthy status in %s", body)
	}
	c.recoverBreakers()
	if _, err := c.get("/healthz", http.StatusOK); err != nil {
		return fmt.Errorf("after breaker recovery: %w", err)
	}
	c.logf("/healthz ok (200 -> 503 -> 200)")

	// The debug rollups and the embedded observability surfaces: alert
	// states as JSON, the self-contained dashboard, and a
	// Prometheus-compatible range query over the scraped history.
	now := time.Now().Unix()
	rangeQuery := fmt.Sprintf("/api/v1/query_range?query=blu_serve_queue_depth&start=%d&end=%d&step=5", now-600, now)
	for _, pm := range [][2]string{
		{"/debug/queries", "queries:"},
		{"/debug/alerts", `"rules"`},
		{"/debug/dash", "<svg"},
		{rangeQuery, `"status":"success"`},
	} {
		if err := c.expect(pm[0], pm[1]); err != nil {
			return err
		}
	}

	body, err = c.get("/debug/explain?q="+url.QueryEscape(groupBySQL), http.StatusOK)
	if err != nil {
		return err
	}
	rep, err := reconciledReport(body)
	if err != nil {
		return fmt.Errorf("/debug/explain: %w", err)
	}
	c.logf("/debug/explain ok (%d bytes, %d operators, reconciled)", len(body), len(rep.Ops))
	return nil
}

// expect GETs a path that must answer 200 with marker in the body.
func (c *check) expect(path, marker string) error {
	body, err := c.get(path, http.StatusOK)
	if err != nil {
		return err
	}
	if !bytes.Contains(body, []byte(marker)) {
		return fmt.Errorf("%s: %q missing: %.120s", path, marker, body)
	}
	c.logf("%.40s ok (%d bytes)", path, len(body))
	return nil
}
