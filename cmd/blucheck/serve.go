package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"blugpu/internal/metrics"
	"blugpu/internal/qlog"
	"blugpu/internal/serve"
	"blugpu/internal/workload"
)

// checkServe drives the full serving lifecycle over HTTP against a
// stack with a deliberately small admission queue: a multi-user BD
// Insights mix through POST /query (retrying shed submissions), one
// inline EXPLAIN ANALYZE, a graceful drain, the post-drain 503, every
// refusal joined to the query log by the request ID its client was
// given, and a final counter reconciliation via /debug/serve.
func checkServe(c *check) error {
	err := c.boot(sfGPU, false, serve.StackOptions{Config: serve.Config{QueueCapacity: 4}, Background: true})
	if err != nil {
		return err
	}
	mix := workload.UserMix{Simple: 14, Intermediate: 4, Complex: 2, QueriesPerUser: 2}

	// Every refusal must tell its client the ID it was logged under, in
	// header and body alike; the IDs are joined to the query log below.
	var refusedMu sync.Mutex
	var refusedIDs []string
	refused := func(hdr http.Header, body []byte) error {
		var eb struct {
			RequestID string `json:"request_id"`
		}
		id := hdr.Get("X-Request-ID")
		if err := json.Unmarshal(body, &eb); err != nil || id == "" || id != eb.RequestID {
			return fmt.Errorf("refusal carries X-Request-ID %q, want the same ID in its body: %.200s", id, body)
		}
		refusedMu.Lock()
		refusedIDs = append(refusedIDs, id)
		refusedMu.Unlock()
		return nil
	}

	var submitted, admitted, shedRetries atomic.Uint64
	user := func(u int, stream []workload.Query) error {
		session := fmt.Sprintf("user-%d", u)
		for _, q := range stream {
			for attempt := 0; ; attempt++ {
				if attempt > 500 {
					return fmt.Errorf("%s: %s never admitted", session, q.ID)
				}
				submitted.Add(1)
				code, hdr, body, err := c.post("/query", map[string]any{
					"sql": q.SQL, "session": session, "class": string(q.Class), "name": q.ID,
				}, "")
				if err != nil {
					return err
				}
				if code == http.StatusTooManyRequests {
					if err := refused(hdr, body); err != nil {
						return fmt.Errorf("%s: %s: 429: %w", session, q.ID, err)
					}
					shedRetries.Add(1)
					time.Sleep(2 * time.Millisecond)
					continue
				}
				if code != http.StatusOK {
					return fmt.Errorf("%s: %s: HTTP %d: %.200s", session, q.ID, code, body)
				}
				var resp struct {
					Class string `json:"class"`
				}
				if err := json.Unmarshal(body, &resp); err != nil {
					return fmt.Errorf("%s: bad /query body: %w", session, err)
				}
				if resp.Class != string(q.Class) {
					return fmt.Errorf("%s: class %q echoed as %q", session, q.Class, resp.Class)
				}
				admitted.Add(1)
				break
			}
		}
		return nil
	}
	streams := workload.BDInsightsStreams(mix)
	errs := make(chan error)
	for u, stream := range streams {
		go func() { errs <- user(u, stream) }()
	}
	var firstErr error
	for range streams {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	c.logf("served %d queries over %d users (%d submissions, %d shed retries)",
		admitted.Load(), mix.Users(), submitted.Load(), shedRetries.Load())

	// One inline EXPLAIN ANALYZE through the serving path (its report
	// must come back under the request's ID).
	submitted.Add(1)
	if _, err := c.postIdentified(1, true); err != nil {
		return err
	}
	c.logf("inline EXPLAIN ANALYZE ok")

	// Graceful drain over HTTP, then prove nothing new is admitted.
	code, _, body, err := c.post("/drain?deadline_ms=5000", nil, "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("/drain: HTTP %d: %.200s", code, body)
	}
	var rep serve.DrainReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("/drain body: %w", err)
	}
	if rep.ForcedCancels != 0 {
		return fmt.Errorf("drain force-canceled %d queries with no load in flight", rep.ForcedCancels)
	}
	submitted.Add(1)
	code, hdr, body, err := c.post("/query", map[string]any{"sql": "SELECT 1 FROM store_sales LIMIT 1"}, "")
	if err != nil {
		return err
	}
	if code != http.StatusServiceUnavailable {
		return fmt.Errorf("post-drain /query: HTTP %d %.200s, want 503", code, body)
	}
	if err := refused(hdr, body); err != nil {
		return fmt.Errorf("post-drain 503: %w", err)
	}
	c.logf("drain ok (flushed=%d, post-drain submissions refused)", rep.Flushed)

	// Every refusal is in the query log once, under the ID its client got.
	recs, _, err := c.records()
	if err != nil {
		return err
	}
	shedLogged := map[string]int{}
	for _, rec := range recs {
		if rec.Event == qlog.EventQuery && rec.Outcome == qlog.OutcomeShed {
			shedLogged[rec.RequestID]++
		}
	}
	for _, id := range refusedIDs {
		if shedLogged[id] != 1 {
			return fmt.Errorf("refusal %s has %d shed records in the query log, want 1", id, shedLogged[id])
		}
	}
	c.logf("%d refusals joined to the query log by the request ID their client got", len(refusedIDs))

	// Reconcile: the server's ledger must match the client's count, the
	// four outcomes must partition it exactly, and /debug/serve must
	// agree with the in-process snapshot.
	body, err = c.get("/debug/serve", http.StatusOK)
	if err != nil {
		return err
	}
	var got metrics.AdmissionSnapshot
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("/debug/serve body: %w", err)
	}
	if got.Submitted != submitted.Load() {
		return fmt.Errorf("server saw %d submissions, client sent %d", got.Submitted, submitted.Load())
	}
	if sum := got.Admitted + got.Shed + got.TimedOut + got.Drained; sum != got.Submitted {
		return fmt.Errorf("outcomes do not partition submissions: %d+%d+%d+%d = %d != %d",
			got.Admitted, got.Shed, got.TimedOut, got.Drained, sum, got.Submitted)
	}
	if snap := c.st.Server.AdmissionSnapshot(); snap.Admitted != got.Admitted || snap.Submitted != got.Submitted {
		return fmt.Errorf("/debug/serve disagrees with the in-process snapshot: %+v vs %+v", got, snap)
	}
	c.logf("ledger reconciled (submitted=%d admitted=%d shed=%d timed_out=%d drained=%d)",
		got.Submitted, got.Admitted, got.Shed, got.TimedOut, got.Drained)
	return nil
}
