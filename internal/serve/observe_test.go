package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blugpu/internal/gpu"
	"blugpu/internal/metrics"
	"blugpu/internal/monitor"
	"blugpu/internal/qlog"
	"blugpu/internal/sched"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

func TestRetryAfterHint(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)
	stamps := func(n int, spacing time.Duration) []time.Time {
		out := make([]time.Time, n)
		for i := range out {
			out[i] = base.Add(time.Duration(i) * spacing)
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		depth    int
		stamps   []time.Time
		now      time.Time
		fallback time.Duration
		want     time.Duration
	}{
		// No rate signal: the configured fallback applies, clamped.
		{"no-stamps", 10, nil, base, 3 * time.Second, 3 * time.Second},
		{"one-stamp", 10, stamps(1, time.Second), base.Add(time.Second), 2 * time.Second, 2 * time.Second},
		{"fallback-clamped-up", 5, nil, base, time.Millisecond, retryAfterMin},
		{"fallback-clamped-down", 5, nil, base, time.Hour, retryAfterMax},
		// 10 dequeues over 9s ending now → rate 10/9 ≈ 1.11/s; depth 10
		// needs (10+1)/1.11 ≈ 9.9s.
		{"derived", 10, stamps(10, time.Second), base.Add(9 * time.Second), time.Second, time.Duration(9.9 * float64(time.Second))},
		// Fast dequeue rate: 32 stamps in 31ms → ~1000/s; depth 4 → 5ms,
		// clamped up to the 1s header floor.
		{"derived-clamped-up", 4, stamps(32, time.Millisecond), base.Add(31 * time.Millisecond), time.Second, retryAfterMin},
		// Glacial rate: 2 stamps over 100s → 0.02/s; depth 50 → 2550s,
		// clamped down to a minute.
		{"derived-clamped-down", 50, stamps(2, 100*time.Second), base.Add(100 * time.Second), time.Second, retryAfterMax},
		// Zero/negative window (clock skew): fallback.
		{"zero-window", 3, stamps(5, 0), base, 2 * time.Second, 2 * time.Second},
	} {
		got := retryAfterHint(tc.depth, tc.stamps, tc.now, tc.fallback)
		if tc.name == "derived" {
			// Floating-point derivation: allow 1ms.
			if d := got - tc.want; d < -time.Millisecond || d > time.Millisecond {
				t.Fatalf("%s: hint = %v, want ≈%v", tc.name, got, tc.want)
			}
			continue
		}
		if got != tc.want {
			t.Fatalf("%s: hint = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestShedRetryAfterDerivedFromDequeueRate(t *testing.T) {
	// A stepping clock makes the dequeue stamps spread deterministically:
	// every clock read advances 100ms. The server reads the clock from
	// concurrent goroutines, so the closure locks.
	var clockMu sync.Mutex
	now := time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		now = now.Add(100 * time.Millisecond)
		return now
	}
	exec := &stubExec{release: make(chan struct{})}
	s, err := New(exec, Config{
		QueueCapacity: 2,
		ClassLimits:   map[workload.Class]int{workload.Simple: 1, workload.Intermediate: 1, workload.Complex: 1},
		Clock:         clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One executing (admitted → one dequeue stamp), two queued → full.
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := s.Do(context.Background(), Request{SQL: "SELECT x FROM t", Class: workload.Simple})
			done <- err
		}()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			snap := s.AdmissionSnapshot()
			if snap.Inflight+snap.QueueDepth == i+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	_, err = s.Do(context.Background(), Request{SQL: "SELECT x FROM t", Class: workload.Simple})
	refused, ok := err.(*RefusedError)
	if !ok {
		t.Fatalf("full queue returned %v, want refusal", err)
	}
	// Only one dequeue stamp so far → no rate signal → fallback (1s).
	if refused.RetryAfter != time.Second {
		t.Fatalf("cold shed RetryAfter = %v, want the 1s fallback", refused.RetryAfter)
	}
	close(exec.release)
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Refill and shed again: now 3 dequeue stamps exist, each clock read
	// 100ms apart, so the hint derives from a real rate and lands inside
	// the clamp bounds rather than on the fallback constant.
	exec.mu.Lock()
	exec.release = make(chan struct{})
	exec.mu.Unlock()
	for i := 0; i < 3; i++ {
		go func() {
			_, err := s.Do(context.Background(), Request{SQL: "SELECT x FROM t", Class: workload.Simple})
			done <- err
		}()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			snap := s.AdmissionSnapshot()
			if snap.Inflight+snap.QueueDepth == i+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	_, err = s.Do(context.Background(), Request{SQL: "SELECT x FROM t", Class: workload.Simple})
	refused, ok = err.(*RefusedError)
	if !ok {
		t.Fatalf("full queue returned %v, want refusal", err)
	}
	if refused.RetryAfter < retryAfterMin || refused.RetryAfter > retryAfterMax {
		t.Fatalf("derived RetryAfter %v outside [%v, %v]", refused.RetryAfter, retryAfterMin, retryAfterMax)
	}
	close(exec.release)
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	reconcile(t, s)
}

func TestSpanDigest(t *testing.T) {
	spans := []trace.Span{
		{Cat: "gpu", Attrs: []trace.Attr{trace.Int("device", 1)}},
		{Cat: "transfer", Attrs: []trace.Attr{trace.Int("device", 0), trace.Int("bytes", 4096)}},
		{Cat: "transfer", Attrs: []trace.Attr{trace.Int("device", 1), trace.Int("bytes", 512)}},
		{Cat: "op", Attrs: []trace.Attr{trace.Str("fallback", "injected kernel fault")}},
		{Cat: "op", Attrs: []trace.Attr{trace.Str("fallback", "second cause ignored")}},
		// bytes outside a transfer span must not count.
		{Cat: "kernel", Attrs: []trace.Attr{trace.Int("bytes", 999999)}},
	}
	devices, transferBytes, fallback := spanDigest(spans)
	if fmt.Sprint(devices) != "[0 1]" {
		t.Fatalf("devices = %v, want [0 1]", devices)
	}
	if transferBytes != 4608 {
		t.Fatalf("transferBytes = %d, want 4608", transferBytes)
	}
	if fallback != "injected kernel fault" {
		t.Fatalf("fallback = %q", fallback)
	}
}

// phasesCloseToTotal asserts the named phases account for the total
// wall time within 5% (with a small absolute floor for
// microsecond-scale queries where scheduler jitter dominates).
func phasesCloseToTotal(t *testing.T, rec qlog.Record) {
	t.Helper()
	sum := rec.Phases.SumMs()
	diff := math.Abs(rec.TotalMs - sum)
	tol := math.Max(0.05*rec.TotalMs, 0.25)
	if diff > tol {
		t.Fatalf("phases sum %.3fms vs total %.3fms (diff %.3f > tol %.3f): %+v",
			sum, rec.TotalMs, diff, tol, rec.Phases)
	}
}

func decodeLog(t *testing.T, buf *bytes.Buffer) []qlog.Record {
	t.Helper()
	recs, err := qlog.Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("query log invalid: %v\n%s", err, buf.String())
	}
	return recs
}

// TestRequestIDJoin is the end-to-end join proof over HTTP: one POST
// /query with X-Request-ID must land the same ID in (1) the query-log
// record, with phases summing to the total, (2) the response body and
// header, (3) the EXPLAIN ANALYZE report, and (4) the live trace ring
// served at /debug/trace/{id}. The 1µs slow threshold forces slow
// retention so the slow paths are exercised on the same request.
func TestRequestIDJoin(t *testing.T) {
	eng := newServeTestEngine(t)
	eng.SetTracer(trace.New())
	var logBuf bytes.Buffer
	s, err := New(eng, Config{Log: qlog.New(&logBuf), SlowQuery: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	mux := NewMux(s, nil)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const reqID = "join-req-0001"
	body := `{"sql":"SELECT k, SUM(v) AS s FROM t GROUP BY k","explain":true,"session":"analyst"}`
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/query", strings.NewReader(body))
	req.Header.Set("X-Request-ID", reqID)
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", httpResp.StatusCode)
	}
	if got := httpResp.Header.Get("X-Request-ID"); got != reqID {
		t.Fatalf("response header X-Request-ID = %q, want %q", got, reqID)
	}
	var out struct {
		RequestID string          `json:"request_id"`
		Explain   json.RawMessage `json:"explain"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.RequestID != reqID {
		t.Fatalf("body request_id = %q", out.RequestID)
	}
	// Join 1: the EXPLAIN ANALYZE report carries the ID.
	var rep struct {
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(out.Explain, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.RequestID != reqID {
		t.Fatalf("explain report request_id = %q", rep.RequestID)
	}

	// Join 2: the query log has the record, with a coherent phase sum
	// and a slow_query companion (threshold is 1ns).
	recs := decodeLog(t, &logBuf)
	var queryRec, slowRec *qlog.Record
	for i := range recs {
		if recs[i].RequestID != reqID {
			continue
		}
		switch recs[i].Event {
		case qlog.EventQuery:
			queryRec = &recs[i]
		case qlog.EventSlow:
			slowRec = &recs[i]
		}
	}
	if queryRec == nil {
		t.Fatalf("no query record for %s in log:\n%s", reqID, logBuf.String())
	}
	if queryRec.Outcome != qlog.OutcomeOK || queryRec.Rows == 0 || queryRec.ResultBytes == 0 {
		t.Fatalf("record %+v", queryRec)
	}
	if queryRec.Phases.SerializeMs <= 0 {
		t.Fatal("serialize phase must be measured (the HTTP hook encodes real JSON)")
	}
	phasesCloseToTotal(t, *queryRec)
	if slowRec == nil || !slowRec.Slow || slowRec.SlowThresholdMs <= 0 {
		t.Fatalf("slow_query companion missing or unmarked: %+v", slowRec)
	}

	// Join 3: the live trace ring serves the same ID as Chrome JSON.
	traceResp, err := http.Get(srv.URL + "/debug/trace/" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	traceBody := new(bytes.Buffer)
	traceBody.ReadFrom(traceResp.Body)
	traceResp.Body.Close()
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace/%s → %d: %s", reqID, traceResp.StatusCode, traceBody.String())
	}
	if err := trace.ValidateChrome(traceBody.Bytes()); err != nil {
		t.Fatalf("trace export invalid: %v", err)
	}
	if !bytes.Contains(traceBody.Bytes(), []byte(`"request_id":"`+reqID+`"`)) {
		t.Fatal("trace export missing the request ID")
	}

	// Slow retention serves the same trace at /debug/trace/slow.
	slowResp, err := http.Get(srv.URL + "/debug/trace/slow")
	if err != nil {
		t.Fatal(err)
	}
	slowBody := new(bytes.Buffer)
	slowBody.ReadFrom(slowResp.Body)
	slowResp.Body.Close()
	if slowResp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace/slow → %d", slowResp.StatusCode)
	}
	if !bytes.Contains(slowBody.Bytes(), []byte(reqID)) {
		t.Fatal("slow trace export missing the request ID")
	}

	// Unknown IDs 404 — the ring is a sample, not an archive.
	missResp, err := http.Get(srv.URL + "/debug/trace/never-seen")
	if err != nil {
		t.Fatal(err)
	}
	missResp.Body.Close()
	if missResp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace → %d, want 404", missResp.StatusCode)
	}

	// Join 4: /debug/serve lists the request with its queue wait.
	snap := s.AdmissionSnapshot()
	if len(snap.Recent) == 0 || snap.Recent[0].RequestID != reqID {
		t.Fatalf("recent requests missing %s: %+v", reqID, snap.Recent)
	}
	if snap.Recent[0].WaitMs < 0 || snap.Recent[0].TotalMs <= 0 {
		t.Fatalf("recent entry lacks durations: %+v", snap.Recent[0])
	}
	if snap.SlowQueries != 1 {
		t.Fatalf("slow_queries = %d, want 1", snap.SlowQueries)
	}
	reconcile(t, s)
}

// TestTracerHoldsNoFinishedQueries: the server moves each finished
// query's spans from the engine's tracer into the bounded ring, so what
// the tracer holds does not grow with the number of queries served, while
// /debug/trace/{id} still serves the newest query and a slow one that the
// recency ring has long since evicted.
func TestTracerHoldsNoFinishedQueries(t *testing.T) {
	eng := newServeTestEngine(t)
	tr := trace.New()
	eng.SetTracer(tr)
	// A request is slow exactly when the injected clock advances under it.
	var now time.Duration
	var tick time.Duration
	s, err := New(eng, Config{Clock: func() time.Time {
		now += tick
		return time.Unix(0, 0).Add(now)
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMux(s, nil))
	defer srv.Close()

	const n, slowAt, checkAt = 200, 10, 20
	var heldEarly int
	for i := 0; i < n; i++ {
		tick = 0
		if i == slowAt {
			tick = time.Second
		}
		_, err := s.Do(context.Background(), Request{
			SQL: "SELECT k, SUM(v) AS s FROM t GROUP BY k", RequestID: fmt.Sprintf("req-%03d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == checkAt-1 {
			heldEarly = tr.Held()
		}
	}
	if got := tr.Held(); got != heldEarly {
		t.Fatalf("tracer holds %d spans after %d queries, %d after %d: retention grows with traffic", got, n, heldEarly, checkAt)
	}
	if got := tr.Queries(); got != n {
		t.Fatalf("tracer saw %d queries, want %d", got, n)
	}
	for _, id := range []string{fmt.Sprintf("req-%03d", n-1), fmt.Sprintf("req-%03d", slowAt)} {
		resp, err := http.Get(srv.URL + "/debug/trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/debug/trace/%s → %d: %s", id, resp.StatusCode, body.String())
		}
		if err := trace.ValidateChrome(body.Bytes()); err != nil {
			t.Fatalf("/debug/trace/%s invalid: %v", id, err)
		}
		if !bytes.Contains(body.Bytes(), []byte(`"request_id":"`+id+`"`)) {
			t.Fatalf("/debug/trace/%s export lacks the request ID", id)
		}
	}
	// An ordinary early request is gone: the ring is the only holder.
	resp, err := http.Get(srv.URL + "/debug/trace/req-000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted trace → %d, want 404", resp.StatusCode)
	}
}

// TestFailedQuerySpansReachRing: a query whose deadline passes once
// execution has begun hands its spans to the ring like any other
// outcome instead of leaving them in the tracer for the life of the
// process.
func TestFailedQuerySpansReachRing(t *testing.T) {
	eng := newServeTestEngine(t)
	tr := trace.New()
	eng.SetTracer(tr)
	s, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	held := tr.Held()
	const n = 20
	for i := 0; i < n; i++ {
		// Already expired when the engine first looks: parse and plan do
		// not check, the first operator does — after the root span opened.
		_, err := s.Do(context.Background(), Request{
			SQL: "SELECT k, SUM(v) AS s FROM t GROUP BY k", Deadline: time.Nanosecond,
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("query %d: want DeadlineExceeded, got %v", i, err)
		}
	}
	if got := tr.Queries(); got != n {
		t.Fatalf("tracer saw %d queries, want %d: the deadline fired before execution began", got, n)
	}
	if got := tr.Held(); got != held {
		t.Errorf("tracer holds %d spans after %d failed queries, %d before", got, n, held)
	}
	if added, retained, _ := s.TraceRing().Stats(); added != n || retained != n {
		t.Errorf("ring took %d entries and retains %d, want %d", added, retained, n)
	}
	reconcile(t, s)
}

// TestUnnamedRequestsDoNotGrowMonitor: every unnamed request gets a
// unique query name, so the monitor's per-name rollups must fold the
// overflow into one row instead of growing with the requests served —
// without losing an execution.
func TestUnnamedRequestsDoNotGrowMonitor(t *testing.T) {
	eng := newServeTestEngine(t)
	s, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if _, err := s.Do(context.Background(), Request{SQL: "SELECT k FROM t WHERE k = 3"}); err != nil {
			t.Fatal(err)
		}
	}
	rows := eng.Monitor().Queries()
	if len(rows) > monitor.MaxQueryNames+1 {
		t.Errorf("monitor keeps %d query rows after %d unnamed requests, cap is %d+1", len(rows), n, monitor.MaxQueryNames)
	}
	var buf bytes.Buffer
	if err := metrics.Collect(metrics.Sources{Monitor: eng.Monitor()}).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "blu_query_executions_total{") {
			v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			sum += v
		}
	}
	if sum != n {
		t.Errorf("blu_query_executions_total sums to %d, want %d", sum, n)
	}
}

func TestGeneratedRequestID(t *testing.T) {
	eng := newServeTestEngine(t)
	s, _ := New(eng, Config{})
	mux := NewMux(s, nil)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"sql":"SELECT v FROM t LIMIT 3"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := resp.Header.Get("X-Request-ID")
	if !strings.HasPrefix(got, "blu-") {
		t.Fatalf("generated ID = %q, want blu-<n>", got)
	}
	var out struct {
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.RequestID != got {
		t.Fatalf("body ID %q != header ID %q", out.RequestID, got)
	}
}

// errRequestID is the request ID an error returned by Do carries.
func errRequestID(err error) string {
	var refused *RefusedError
	var counted *requestError
	switch {
	case errors.As(err, &refused):
		return refused.RequestID
	case errors.As(err, &counted):
		return counted.id
	}
	return ""
}

// parkSubmissions starts n more helper submissions against a server
// whose executor holds every execution, waiting for each to settle into
// place (the first ever takes the class slot, the rest queue) before
// starting the next.
func parkSubmissions(t *testing.T, s *Server, n int, wg *sync.WaitGroup) {
	t.Helper()
	snap := s.AdmissionSnapshot()
	parked := snap.Inflight + snap.QueueDepth
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Do(context.Background(), Request{SQL: "SELECT x FROM t", Class: workload.Simple})
		}()
		deadline := time.Now().Add(5 * time.Second)
		for {
			snap := s.AdmissionSnapshot()
			if snap.Inflight+snap.QueueDepth == parked+i+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("helper submission %d never parked", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestQlogOutcomeLedger drives one subject submission down every exit
// of the request path and checks it is settled exactly once: one ledger
// counter moves (globally and for its class), and the recent list, the
// wait/wall histograms and the query log each get one projection of the
// same record, under the request ID the caller's error carries. Helper
// submissions that set the scene stay parked until the subject has been
// checked, so every delta is the subject's alone.
func TestQlogOutcomeLedger(t *testing.T) {
	oneSlot := map[workload.Class]int{workload.Simple: 1, workload.Intermediate: 1, workload.Complex: 1}
	const sql = "SELECT x FROM t"
	rows := []struct {
		name string
		// exec builds the executor; nil takes a stubExec that holds every
		// execution on hold when hold is set and returns at once otherwise.
		exec     func(t *testing.T) Executor
		hold     bool
		queueCap int
		parked   int    // helper submissions parked ahead of the subject
		drain    string // "before": the server is drained first; "queued": drain flushes the queued subject
		abandon  bool   // the subject's caller gives up after 20ms
		req      Request
		outcome  string
		reason   string
		counter  string // the one ledger counter that moves
		executed bool
	}{
		{name: "ok", outcome: qlog.OutcomeOK, counter: "admitted", executed: true},
		{name: "engine error",
			exec:    func(t *testing.T) Executor { return newServeTestEngine(t) },
			req:     Request{SQL: "SELECT nonsense FROM missing"},
			outcome: qlog.OutcomeError, counter: "admitted", executed: true},
		{name: "executor panic",
			exec:    func(*testing.T) Executor { return &panicOnceExec{} },
			outcome: qlog.OutcomeError, counter: "admitted", executed: true},
		{name: "serialize failure",
			req:     Request{Serialize: func(*Response) (int, error) { return 0, errors.New("encode boom") }},
			outcome: qlog.OutcomeError, counter: "admitted", executed: true},
		{name: "deadline mid-execution", hold: true,
			req:     Request{Deadline: 20 * time.Millisecond},
			outcome: qlog.OutcomeTimedOut, counter: "timed_out", executed: true},
		{name: "abandoned while queued", hold: true, parked: 1, abandon: true,
			outcome: qlog.OutcomeTimedOut, reason: "abandoned_queued", counter: "timed_out"},
		{name: "shed queue_full", hold: true, queueCap: 1, parked: 2,
			outcome: qlog.OutcomeShed, reason: "queue_full", counter: "shed"},
		{name: "shed queue_full_unhealthy", hold: true, queueCap: 2, parked: 2,
			exec: func(t *testing.T) Executor {
				dev := gpu.NewDevice(0, vtime.TeslaK40())
				sch, err := sched.New(dev)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < sched.DefaultFailThreshold; i++ {
					sch.ReportFailure(dev)
				}
				return &stubExec{sch: sch}
			},
			outcome: qlog.OutcomeShed, reason: "queue_full_unhealthy", counter: "shed"},
		{name: "refused while draining", drain: "before",
			outcome: qlog.OutcomeShed, reason: "draining", counter: "shed"},
		{name: "flushed by drain", hold: true, parked: 1, drain: "queued",
			outcome: qlog.OutcomeDrained, reason: "drained", counter: "drained"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var exec Executor = &stubExec{}
			if row.exec != nil {
				exec = row.exec(t)
			}
			hold := make(chan struct{})
			if stub, ok := exec.(*stubExec); ok && row.hold {
				stub.release = hold
			}
			var logBuf bytes.Buffer
			s, err := New(exec, Config{
				QueueCapacity: row.queueCap,
				ClassLimits:   oneSlot,
				Log:           qlog.New(&logBuf),
				SlowQuery:     -1, // no slow_query twin in the record count
			})
			if err != nil {
				t.Fatal(err)
			}
			var helpers sync.WaitGroup
			parkSubmissions(t, s, row.parked, &helpers)
			if row.drain == "before" {
				s.Drain(time.Second)
			}

			req := row.req
			req.Class, req.RequestID = workload.Simple, "subject"
			if req.SQL == "" {
				req.SQL = sql
			}
			ctx := context.Background()
			if row.abandon {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 20*time.Millisecond)
				defer cancel()
			}
			before := s.AdmissionSnapshot()
			done := make(chan error, 1)
			go func() {
				_, err := s.Do(ctx, req)
				done <- err
			}()
			if row.drain == "queued" {
				for s.AdmissionSnapshot().QueueDepth != 1 {
					time.Sleep(time.Millisecond)
				}
				helpers.Add(1)
				go func() {
					defer helpers.Done()
					s.Drain(5 * time.Second)
				}()
			}
			doErr := <-done
			after := s.AdmissionSnapshot()

			// One ledger counter moved, by one, globally and for the class.
			ledger := func(admitted, shed, timedOut, drained uint64) map[string]uint64 {
				return map[string]uint64{"admitted": admitted, "shed": shed, "timed_out": timedOut, "drained": drained}
			}
			global0 := ledger(before.Admitted, before.Shed, before.TimedOut, before.Drained)
			global1 := ledger(after.Admitted, after.Shed, after.TimedOut, after.Drained)
			c0, c1 := before.Classes[0], after.Classes[0] // classOrder: simple first
			class0 := ledger(c0.Admitted, c0.Shed, c0.TimedOut, c0.Drained)
			class1 := ledger(c1.Admitted, c1.Shed, c1.TimedOut, c1.Drained)
			for counter := range global0 {
				want := uint64(0)
				if counter == row.counter {
					want = 1
				}
				if got := global1[counter] - global0[counter]; got != want {
					t.Errorf("global %s moved by %d, want %d", counter, got, want)
				}
				if got := class1[counter] - class0[counter]; got != want {
					t.Errorf("class %s moved by %d, want %d", counter, got, want)
				}
			}
			// The histograms behind blu_serve_wall_seconds and
			// blu_serve_queue_wait_seconds count executed requests only.
			wantObs := uint64(0)
			if row.executed {
				wantObs = 1
			}
			if got := c1.WallCount - c0.WallCount; got != wantObs {
				t.Errorf("wall histogram count moved by %d, want %d", got, wantObs)
			}
			if got := c1.WaitCount - c0.WaitCount; got != wantObs {
				t.Errorf("wait histogram count moved by %d, want %d", got, wantObs)
			}

			// One recent entry and one query record, views of one record,
			// under the ID the caller got back.
			var recent []metrics.RecentRequest
			for _, rr := range after.Recent {
				if rr.RequestID == "subject" {
					recent = append(recent, rr)
				}
			}
			var recs []qlog.Record
			for _, rec := range decodeLog(t, &logBuf) {
				if rec.RequestID == "subject" {
					recs = append(recs, rec)
				}
			}
			if len(recent) != 1 || len(recs) != 1 {
				t.Fatalf("%d recent entries, %d log records for the subject, want 1 and 1:\n%s",
					len(recent), len(recs), logBuf.String())
			}
			rr, rec := recent[0], recs[0]
			if rec.Event != qlog.EventQuery || rec.Outcome != row.outcome || rec.Reason != row.reason {
				t.Errorf("log record %s/%s/%q, want query/%s/%q", rec.Event, rec.Outcome, rec.Reason, row.outcome, row.reason)
			}
			if rr.Outcome != rec.Outcome || rr.Query != rec.Query || rr.WaitMs != rec.Phases.QueueWaitMs || rr.TotalMs != rec.TotalMs {
				t.Errorf("recent entry and log record disagree:\n%+v\n%+v", rr, rec)
			}
			if (rec.Query != "") != row.executed {
				t.Errorf("query name %q on a record with executed=%v", rec.Query, row.executed)
			}
			if row.outcome == qlog.OutcomeOK {
				if doErr != nil {
					t.Errorf("Do: %v", doErr)
				}
			} else if got := errRequestID(doErr); got != "subject" {
				t.Errorf("Do's error %v carries request ID %q, want the logged one", doErr, got)
			}

			// Let the helpers go and bring the server to idle: the ledger
			// identity holds and every submission was logged once.
			close(hold)
			helpers.Wait()
			s.Drain(time.Second)
			reconcile(t, s)
			ids := map[string]int{}
			for _, rec := range decodeLog(t, &logBuf) {
				ids[rec.RequestID]++
			}
			if submitted := s.AdmissionSnapshot().Submitted; uint64(len(ids)) != submitted {
				t.Errorf("%d distinct request IDs logged for %d submissions", len(ids), submitted)
			}
			for id, n := range ids {
				if n != 1 {
					t.Errorf("request %s logged %d times", id, n)
				}
			}
		})
	}
}

func TestDeadlineTimeoutLogged(t *testing.T) {
	var logBuf bytes.Buffer
	exec := &stubExec{release: make(chan struct{})} // never released
	s, _ := New(exec, Config{Log: qlog.New(&logBuf), SlowQuery: -1})
	_, err := s.Do(context.Background(), Request{
		SQL: "SELECT x FROM t", Class: workload.Simple, Deadline: 20 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("deadline must fire")
	}
	recs := decodeLog(t, &logBuf)
	if len(recs) != 1 || recs[0].Outcome != qlog.OutcomeTimedOut || recs[0].Error == "" {
		t.Fatalf("records %+v", recs)
	}
	reconcile(t, s)
}

// TestExplainKeepsAdmissionAttribution: an EXPLAIN request is admitted
// like any other, so its root span carries the same serve.* attribution
// and request ID a plain request's does — and annotating the audited
// query's root span must not unbalance the audit.
func TestExplainKeepsAdmissionAttribution(t *testing.T) {
	eng := newServeTestEngine(t)
	eng.SetTracer(trace.New())
	s, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Do(context.Background(), Request{
		SQL: "SELECT k, SUM(v) AS s FROM t GROUP BY k", Class: workload.Intermediate,
		Session: "analyst", Explain: true, RequestID: "explain-attrs-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Report == nil || !resp.Report.Reconciled() {
		t.Fatalf("inline report missing or not reconciled: %+v", resp.Report)
	}
	entry, ok := s.TraceRing().Get("explain-attrs-1")
	if !ok {
		t.Fatal("no ring entry for the EXPLAIN request")
	}
	attrs := map[string]string{}
	for _, sp := range entry.Spans {
		if sp.Parent == 0 {
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Str
			}
		}
	}
	if attrs["serve.class"] != "intermediate" || attrs["serve.session"] != "analyst" || attrs["request_id"] != "explain-attrs-1" {
		t.Fatalf("EXPLAIN request's root span lost its admission attribution: %v", attrs)
	}
}

// TestSessionsAreBounded: session IDs are client input, so the table is
// capped — least-recently-seen out — and stamped by the injected clock.
func TestSessionsAreBounded(t *testing.T) {
	var tick atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return base.Add(time.Duration(tick.Add(1)) * time.Millisecond) }
	s, err := New(&stubExec{}, Config{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		req := Request{SQL: "SELECT x FROM t", Class: workload.Simple, Session: fmt.Sprintf("user-%04d", i)}
		if _, err := s.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	sessions := s.Sessions()
	if len(sessions) > maxSessions || s.AdmissionSnapshot().Sessions > maxSessions {
		t.Fatalf("%d sessions listed, %d in the snapshot, cap is %d",
			len(sessions), s.AdmissionSnapshot().Sessions, maxSessions)
	}
	// Sorted by ID, the survivors are the most recently seen: the last
	// maxSessions IDs, the newest at the end.
	if first, last := sessions[0], sessions[len(sessions)-1]; first.ID != fmt.Sprintf("user-%04d", n-maxSessions) || last.ID != fmt.Sprintf("user-%04d", n-1) {
		t.Fatalf("survivors span %s..%s, want the %d most recently seen", first.ID, last.ID, maxSessions)
	}
	for _, sess := range sessions {
		if sess.Created.Before(base) || sess.LastSeen.After(base.Add(time.Hour)) {
			t.Fatalf("session %s stamped off the injected clock: %+v", sess.ID, sess)
		}
	}
}
