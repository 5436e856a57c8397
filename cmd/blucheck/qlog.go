package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"time"

	"blugpu/internal/qlog"
	"blugpu/internal/serve"
	"blugpu/internal/trace"
)

// checkQlog is the wall-clock observability check: it posts identified
// queries over HTTP and proves the request-ID join end to end — one
// query-log record per ID with phases that account for the wall clock,
// the same ID on /debug/trace/{id} and in the EXPLAIN ANALYZE report —
// plus the blu_go_*/blu_slo_* families and the slow-trace surface.
func checkQlog(c *check) error {
	// A 1µs slow threshold forces every query into slow retention so the
	// slow-trace surface is guaranteed to have content.
	err := c.boot(sfSmall, false, serve.StackOptions{Config: serve.Config{SlowQuery: time.Microsecond}, Background: true})
	if err != nil {
		return err
	}
	// Every other query asks for EXPLAIN ANALYZE; postIdentified checks
	// the ID on the header, the body and the report.
	ids, err := c.postIdentified(8, true)
	if err != nil {
		return err
	}
	c.logf("%d identified queries ok (explain on %d)", len(ids), (len(ids)+1)/2)

	// The query log: structurally valid, one record per posted ID, and
	// the phase breakdown accounts for the wall clock.
	recs, _, err := c.records()
	if err != nil {
		return err
	}
	byID := map[string]int{}
	slowEvents := 0
	for _, rec := range recs {
		switch rec.Event {
		case qlog.EventSlow:
			slowEvents++
			continue
		case qlog.EventAlert: // the obsd loop shares the log
			continue
		}
		byID[rec.RequestID]++
		if rec.Outcome != qlog.OutcomeOK {
			return fmt.Errorf("%s: outcome %s (%s)", rec.RequestID, rec.Outcome, rec.Error)
		}
		// queue-wait + admission + parse + plan + exec + serialize must
		// come to the total within 5%, with a small absolute floor for
		// sub-millisecond queries.
		sum := rec.Phases.SumMs()
		if diff := math.Abs(rec.TotalMs - sum); diff > math.Max(0.05*rec.TotalMs, 0.25) {
			return fmt.Errorf("%s: phases sum %.3fms vs total %.3fms (over 5%%): %+v",
				rec.RequestID, sum, rec.TotalMs, rec.Phases)
		}
		if rec.Phases.SerializeMs <= 0 || rec.ResultBytes == 0 {
			return fmt.Errorf("%s: serialize phase unmeasured (%+v)", rec.RequestID, rec.Phases)
		}
	}
	for _, id := range ids {
		if byID[id] != 1 {
			return fmt.Errorf("%s: %d query-log records, want exactly 1", id, byID[id])
		}
	}
	if slowEvents == 0 {
		return fmt.Errorf("no slow_query events despite a 1µs threshold")
	}
	c.logf("query log ok (%d records, %d slow events, phases reconcile)", len(recs), slowEvents)

	// The live tracer: every posted ID resolves to valid Chrome JSON
	// carrying that ID (the ring is larger than the posted count).
	for _, id := range ids {
		body, err := c.get("/debug/trace/"+id, http.StatusOK)
		if err != nil {
			return err
		}
		if err := trace.ValidateChrome(body); err != nil {
			return fmt.Errorf("/debug/trace/%s: %w", id, err)
		}
		if !bytes.Contains(body, []byte(`"request_id":"`+id+`"`)) {
			return fmt.Errorf("/debug/trace/%s: export does not carry the ID", id)
		}
	}
	if _, err := c.get("/debug/trace/qlog-never-sent", http.StatusNotFound); err != nil {
		return fmt.Errorf("unknown trace ID: %w", err)
	}
	slow, err := c.get("/debug/trace/slow", http.StatusOK)
	if err != nil {
		return err
	}
	if err := trace.ValidateChrome(slow); err != nil {
		return fmt.Errorf("/debug/trace/slow: %w", err)
	}
	c.logf("/debug/trace ok (%d IDs joined, slow export %d bytes)", len(ids), len(slow))

	// The metrics surface: runtime and SLO families present and valid.
	scrape, err := c.scrape(
		"blu_go_goroutines",
		"blu_go_heap_objects_bytes",
		"blu_go_gc_cycles_total",
		"blu_slo_threshold_seconds",
		"blu_slo_burn_rate",
		"blu_serve_wall_seconds_bucket",
		"blu_serve_slow_queries_total",
	)
	if err != nil {
		return err
	}
	c.logf("/metrics ok (%d bytes, blu_go_* and blu_slo_* present)", len(scrape))
	return nil
}
