package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blugpu/internal/bench"
	"blugpu/internal/explain"
	"blugpu/internal/metrics"
	"blugpu/internal/qlog"
	"blugpu/internal/sched"
	"blugpu/internal/trace"
	"blugpu/internal/workload"
)

// routeLine matches one route row of bluserve's header comment:
// an optional method, then the path.
var routeLine = regexp.MustCompile(`(?m)^//\t(?:(GET|POST) +)?(/[^\s]+)`)

// stackFamilies are the blu_* families a deployed stack exposes once
// GPU-routed statements and queries through admission have run: engine
// (kernels, transfers, placements, devices, optimizer, KMV), admission,
// runtime, SLO, resource attribution and the obsd store's own.
var stackFamilies = []string{
	"blu_kernel_executions_total", "blu_transfer_bytes_total", "blu_sched_placements_total",
	"blu_device_memory_total_bytes", "blu_device_reserved_bytes", "blu_device_busy_ratio",
	"blu_device_busy_seconds_total", "blu_query_latency_seconds_bucket",
	"blu_optimizer_decisions_total", "blu_kmv_relative_error_count",
	"blu_serve_queue_depth", "blu_serve_submitted_total", "blu_serve_panics_total",
	"blu_serve_wall_seconds_bucket", "blu_serve_slow_queries_total",
	"blu_go_goroutines", "blu_go_heap_objects_bytes", "blu_go_gc_cycles_total",
	"blu_slo_threshold_seconds", "blu_slo_burn_rate",
	"blu_prof_wall_seconds_total", "blu_prof_alloc_bytes_total", "blu_prof_phases_total",
	"blu_obsd_scrapes_total", "blu_alerts_rules",
}

// bootStack generates an sf-scale dataset and serves NewStack over it on
// 127.0.0.1:0.
func bootStack(t *testing.T, sf float64, opts StackOptions) (*Stack, *bench.Harness, string) {
	t.Helper()
	h, err := bench.NewHarness(bench.Config{SF: sf})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStack(h.Eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	base, err := st.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return st, h, base
}

// httpDo sends one request and returns its status, header and body.
func httpDo(t *testing.T, method, url, body, requestID string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", requestID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data
}

// TestStackServesDocumentedRoutes boots the assembled stack as bluserve
// deploys it — sf 0.02 dataset, background loop, -pprof — runs the BD
// Insights complex statements (at sf 0.02 the ones the GPU takes) and
// walks the route table in cmd/bluserve's header comment: the comment is
// the operator-facing contract, so every row must be mounted. A query
// answers under the class its client named; /metrics must be valid
// exposition text carrying every stackFamilies family, /debug/trace/slow
// valid Chrome JSON, /debug/explain a reconciled report; three
// back-to-back CPU profiles taken under load must each come back whole
// (nothing in the process may hold the profiler); the obsd self-scrape
// must stay within its overhead budget; and after the drain a refused
// submission still learns its request ID.
func TestStackServesDocumentedRoutes(t *testing.T) {
	src, err := os.ReadFile("../../cmd/bluserve/main.go")
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(src), "\n// Usage:")
	routes := routeLine.FindAllStringSubmatch(header, -1)
	if len(routes) < 15 {
		t.Fatalf("parsed only %d routes from bluserve's header comment: %v", len(routes), routes)
	}

	// A 1µs slow threshold puts every query into the slow-trace set, so
	// /debug/trace/slow has something to serve.
	st, _, base := bootStack(t, 0.02, StackOptions{Config: Config{SlowQuery: time.Microsecond}, Background: true, Pprof: true})
	do := func(method, path, body, requestID string) (int, []byte) {
		t.Helper()
		code, _, data := httpDo(t, method, base+path, body, requestID)
		return code, data
	}
	const groupBy = "SELECT ss_store_sk, SUM(ss_net_paid) AS total FROM store_sales GROUP BY ss_store_sk"
	const query = `{"sql":"` + groupBy + `","class":"complex"}`
	if code, body := do(http.MethodPost, "/query", query, "route-1"); code != http.StatusOK ||
		!bytes.Contains(body, []byte(`"class":"complex"`)) {
		t.Fatalf("POST /query: HTTP %d, want 200 echoing the named class: %.200s", code, body)
	}
	for _, q := range workload.BDInsights() {
		if q.Class == workload.Complex {
			body, _ := json.Marshal(map[string]string{"sql": q.SQL})
			if code, data := do(http.MethodPost, "/query", string(body), ""); code != http.StatusOK {
				t.Fatalf("%s: HTTP %d: %s", q.ID, code, data)
			}
		}
	}

	drainDocumented := false
	for _, r := range routes {
		method, path := r[1], strings.Replace(r[2], "{request-id}", "route-1", 1)
		switch path {
		case "/drain":
			drainDocumented = true // visited last: it ends admission
			continue
		case "/debug/explain":
			path += "?q=" + url.QueryEscape(groupBy)
		}
		if method == "" {
			method = http.MethodGet
		}
		body := ""
		if path == "/query" {
			body = query
		}
		code, data := do(method, path, body, "")
		if code == http.StatusNotFound {
			t.Errorf("%s %s: 404 — documented in bluserve's header but not mounted: %.120s", method, path, data)
		}
		switch r[2] {
		case "/metrics":
			if err := metrics.ValidateExposition(data); err != nil {
				t.Errorf("/metrics: %v", err)
			}
			for _, family := range stackFamilies {
				if !bytes.Contains(data, []byte("\n"+family)) {
					t.Errorf("/metrics: no %s series", family)
				}
			}
		case "/debug/trace/slow":
			if err := trace.ValidateChrome(data); err != nil {
				t.Errorf("/debug/trace/slow: %v", err)
			}
		case "/debug/explain":
			if rep, err := explain.Decode(data); err != nil || !rep.Reconciled() {
				t.Errorf("/debug/explain: not a reconciled report (%v): %.200s", err, data)
			}
		}
	}

	// The one CPU profiler, under a steady query load: a second owner of
	// the process profiler would turn at least one profile into a 500.
	stop := make(chan struct{})
	loadErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				loadErr <- nil
				return
			case <-time.After(50 * time.Millisecond):
			}
			resp, err := http.Post(base+"/query", "application/json", strings.NewReader(query))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = errors.New(resp.Status)
				}
			}
			if err != nil {
				loadErr <- fmt.Errorf("query while profiling: %w", err)
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		code, data := do(http.MethodGet, "/debug/pprof/profile?seconds=1", "", "")
		zr, err := gzip.NewReader(bytes.NewReader(data))
		var n int64
		if err == nil {
			n, err = io.Copy(io.Discard, zr)
		}
		if code != http.StatusOK || err != nil || n == 0 {
			t.Errorf("profile %d: HTTP %d, %d profile bytes, %v: %.120s", i+1, code, n, err, data)
		}
	}
	close(stop)
	if err := <-loadErr; err != nil {
		t.Error(err)
	}

	// The obsd self-scrape, attributed to the (obsd, scrape) prof cell,
	// must stay under 1% of exec wall, with a 50 ms floor for a
	// test-sized workload.
	var obsdWall, execWall float64
	for _, ps := range st.Prof.Snapshot() {
		switch {
		case ps.Class == "obsd" && ps.Phase == "scrape":
			obsdWall += ps.WallSeconds
		case ps.Phase == "exec":
			execWall += ps.WallSeconds
		}
	}
	if budget := max(0.01*execWall, 0.050); obsdWall <= 0 || obsdWall > budget {
		t.Errorf("obsd scrape wall %.1fms, want (0, %.1fms] (exec wall %.1fms)", obsdWall*1e3, budget*1e3, execWall*1e3)
	}

	if !drainDocumented {
		t.Error("bluserve's header no longer documents POST /drain")
	}
	if code, data := do(http.MethodPost, "/drain", "", ""); code != http.StatusOK || !st.Server.Draining() {
		t.Errorf("POST /drain: HTTP %d: %s", code, data)
	}
	code, hdr, data := httpDo(t, http.MethodPost, base+"/query", query, "")
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || code != http.StatusServiceUnavailable ||
		hdr.Get("X-Request-ID") == "" || eb.RequestID != hdr.Get("X-Request-ID") {
		t.Errorf("after drain: HTTP %d, X-Request-ID %q, body %s; want 503 naming one ID twice",
			code, hdr.Get("X-Request-ID"), data)
	}
}

// TestStackExplainIsAdmitted: GET /debug/explain runs its statement
// through admission, as POST /query {"explain":true} does, so each audit
// is in the query log and its spans leave the tracer with it: three
// audits leave the tracer holding none.
func TestStackExplainIsAdmitted(t *testing.T) {
	var logBuf bytes.Buffer
	_, h, base := bootStack(t, 0.002, StackOptions{Config: Config{Log: qlog.New(&logBuf), SlowQuery: -1}})
	const groupBy = "SELECT ss_store_sk, SUM(ss_net_paid) AS total FROM store_sales GROUP BY ss_store_sk"
	const audits = 3
	for i := 0; i < audits; i++ {
		code, _, data := httpDo(t, http.MethodGet, base+"/debug/explain?q="+url.QueryEscape(groupBy), "", "")
		if rep, err := explain.Decode(data); code != http.StatusOK || err != nil || !rep.Reconciled() {
			t.Fatalf("/debug/explain: HTTP %d, not a reconciled report (%v): %.200s", code, err, data)
		}
		if held := h.Eng.Tracer().Held(); held != 0 {
			t.Errorf("after audit %d the tracer holds %d spans, want 0", i+1, held)
		}
	}
	recs, err := qlog.Decode(logBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	logged := 0
	for _, r := range recs {
		if r.SQL == groupBy && r.Outcome == qlog.OutcomeOK {
			logged++
		}
	}
	if logged != audits {
		t.Errorf("the query log has %d of the %d audits", logged, audits)
	}
}

// TestStackExplainRefusal: /debug/explain answers a refusal as POST
// /query does. On a drained stack it is a 503 with Retry-After, and its
// X-Request-ID, echoed in the body, names the query log's record of the
// refusal: outcome shed, reason draining.
func TestStackExplainRefusal(t *testing.T) {
	var logBuf bytes.Buffer
	st, _, base := bootStack(t, 0.002, StackOptions{Config: Config{Log: qlog.New(&logBuf), SlowQuery: -1}})
	st.Server.Drain(0)
	const groupBy = "SELECT ss_store_sk, SUM(ss_net_paid) AS total FROM store_sales GROUP BY ss_store_sk"
	code, hdr, data := httpDo(t, http.MethodGet, base+"/debug/explain?q="+url.QueryEscape(groupBy), "", "")
	id := hdr.Get("X-Request-ID")
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || code != http.StatusServiceUnavailable ||
		hdr.Get("Retry-After") == "" || id == "" || eb.RequestID != id {
		t.Fatalf("drained /debug/explain: HTTP %d, Retry-After %q, X-Request-ID %q, body %s; want 503 naming one ID twice",
			code, hdr.Get("Retry-After"), id, data)
	}
	recs, err := qlog.Decode(logBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.RequestID == id {
			if r.Outcome != qlog.OutcomeShed || r.Reason != "draining" {
				t.Errorf("request %s logged as %s (%q), want shed (draining)", id, r.Outcome, r.Reason)
			}
			return
		}
	}
	t.Errorf("no query-log record for request %s", id)
}

// TestStackPagesOnFleetFailure drives the shipped default rules through
// a real fleet failure on an injected clock: every device breaker trips,
// AllBreakersOpen goes pending and fires within its hold-down (two
// steps), /healthz answers 503; the breakers recover, the next scrape
// resolves it and /healthz answers 200. The lifecycle must read the
// same on /debug/alerts, blu_alerts_transitions_total, the query log
// and the dash.
func TestStackPagesOnFleetFailure(t *testing.T) {
	var nowNs atomic.Int64
	nowNs.Store(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC).UnixNano())
	clock := func() time.Time { return time.Unix(0, nowNs.Load()).UTC() }
	const step = time.Second
	var logBuf bytes.Buffer
	st, h, base := bootStack(t, 0.002, StackOptions{
		Config: Config{Log: qlog.New(&logBuf, qlog.WithClock(clock)), SlowQuery: -1},
		Clock:  clock, ObsStep: step, ObsRetention: 2 * time.Minute,
	})
	tick := func() {
		nowNs.Add(int64(step))
		st.Obs.Scrape()
	}
	healthz := func(want int) {
		t.Helper()
		if code, _, body := httpDo(t, http.MethodGet, base+"/healthz", "", ""); code != want {
			t.Fatalf("/healthz: HTTP %d, want %d: %s", code, want, body)
		}
	}
	tick()
	tick()
	if pf := st.Obs.PagesFiring(); pf != 0 {
		t.Fatalf("healthy fleet: %d pages firing", pf)
	}
	healthz(http.StatusOK)

	sch := h.Eng.Scheduler()
	for _, dev := range sch.Devices() {
		for i := 0; i < sched.DefaultFailThreshold; i++ {
			sch.ReportFailure(dev)
		}
	}
	for scrapes := 0; st.Obs.PagesFiring() == 0; scrapes++ {
		if scrapes == 3 { // the pending scrape, then two steps of hold-down
			t.Fatal("AllBreakersOpen did not fire within its hold-down")
		}
		tick()
	}
	healthz(http.StatusServiceUnavailable)

	sch.Advance(10 * 60) // far past any probation
	for _, dev := range sch.Devices() {
		sch.ReportSuccess(dev)
	}
	tick()
	if pf := st.Obs.PagesFiring(); pf != 0 {
		t.Fatalf("after recovery: %d pages firing", pf)
	}
	healthz(http.StatusOK)

	const lifecycle = "pending,firing,resolved"
	_, _, alerts := httpDo(t, http.MethodGet, base+"/debug/alerts", "", "")
	var snap metrics.AlertsSnapshot
	if err := json.Unmarshal(alerts, &snap); err != nil {
		t.Fatal(err)
	}
	var seen []string
	for _, tr := range snap.Transitions {
		if tr.Alert == "AllBreakersOpen" {
			seen = append(seen, tr.To)
		}
	}
	if got := strings.Join(seen, ","); got != lifecycle {
		t.Errorf("/debug/alerts: AllBreakersOpen went %s, want %s", got, lifecycle)
	}
	_, _, scrape := httpDo(t, http.MethodGet, base+"/metrics", "", "")
	for _, to := range []string{"firing", "resolved"} {
		line := `blu_alerts_transitions_total{alert="AllBreakersOpen",to="` + to + `"} 1`
		if !bytes.Contains(scrape, []byte(line)) {
			t.Errorf("/metrics: no %s", line)
		}
	}
	recs, err := qlog.Decode(logBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	seen = seen[:0]
	for _, rec := range recs {
		if rec.Event == qlog.EventAlert && rec.Alert == "AllBreakersOpen" {
			seen = append(seen, rec.AlertState)
		}
	}
	if got := strings.Join(seen, ","); got != lifecycle {
		t.Errorf("query log: AllBreakersOpen went %s, want %s", got, lifecycle)
	}
	_, _, dash := httpDo(t, http.MethodGet, base+"/debug/dash", "", "")
	for _, needle := range []string{"AllBreakersOpen", "resolved", "<svg"} {
		if !bytes.Contains(dash, []byte(needle)) {
			t.Errorf("/debug/dash: %q missing", needle)
		}
	}
}
