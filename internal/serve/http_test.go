package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"blugpu/internal/metrics"
	"blugpu/internal/qlog"
	"blugpu/internal/workload"
)

func postQuery(t *testing.T, srv *httptest.Server, body string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(data)
}

func TestHTTPQuery(t *testing.T) {
	eng := newServeTestEngine(t)
	s, _ := New(eng, Config{})
	srv := httptest.NewServer(NewMux(s, metrics.AdminMux(metrics.SourcesFromEngine(eng))))
	defer srv.Close()

	code, _, body := postQuery(t, srv, `{"sql":"SELECT k, SUM(v) AS s FROM t GROUP BY k","session":"u1"}`)
	if code != http.StatusOK {
		t.Fatalf("POST /query: %d %s", code, body)
	}
	var qr queryResponse
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, body)
	}
	if qr.RowCount != 7 || len(qr.Rows) != 7 || len(qr.Columns) != 2 {
		t.Fatalf("unexpected result shape: %+v", qr)
	}
	if qr.Session != "u1" || qr.Class == "" || qr.Query == "" {
		t.Fatalf("missing attribution fields: %+v", qr)
	}
	if qr.ModeledMs <= 0 {
		t.Fatalf("modeled_ms = %v, want > 0", qr.ModeledMs)
	}

	// Inline EXPLAIN ANALYZE.
	code, _, body = postQuery(t, srv, `{"sql":"SELECT k, SUM(v) AS s FROM t GROUP BY k","explain":true}`)
	if code != http.StatusOK {
		t.Fatalf("explain query: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &qr); err != nil || len(qr.Explain) == 0 {
		t.Fatalf("explain missing from response: err=%v body=%s", err, body)
	}

	// Bad SQL → 400, still admitted.
	code, _, _ = postQuery(t, srv, `{"sql":"SELECT FROM nothing"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad SQL: %d, want 400", code)
	}

	// Session via header.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/query", strings.NewReader(`{"sql":"SELECT k FROM t LIMIT 1"}`))
	req.Header.Set("X-Session", "header-session")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Admin surface rides the same mux.
	hres, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("/healthz through serve mux: %d", hres.StatusCode)
	}

	// Sessions listing knows both sessions.
	sres, err := http.Get(srv.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(sres.Body)
	sres.Body.Close()
	var sessions []SessionInfo
	if err := json.Unmarshal(data, &sessions); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, sess := range sessions {
		ids[sess.ID] = true
	}
	if !ids["u1"] || !ids["header-session"] {
		t.Fatalf("sessions = %v, want u1 and header-session", ids)
	}

	// GET on /query is rejected.
	gres, _ := http.Get(srv.URL + "/query")
	gres.Body.Close()
	if gres.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: %d, want 405", gres.StatusCode)
	}
}

func TestHTTPShedAndDrainCodes(t *testing.T) {
	release := make(chan struct{})
	exec := &stubExec{release: release}
	s, _ := New(exec, Config{
		QueueCapacity: 1,
		ClassLimits:   map[workload.Class]int{workload.Simple: 1, workload.Intermediate: 1, workload.Complex: 1},
	})
	srv := httptest.NewServer(NewMux(s, nil))
	defer srv.Close()

	// Saturate: 1 executing + 1 queued, then overflow → 429.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postQuery(t, srv, `{"sql":"SELECT 1 FROM t","class":"simple"}`)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := s.AdmissionSnapshot()
		if (snap.Inflight == 1 && snap.QueueDepth == 1) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	code, hdr, body := postQuery(t, srv, `{"sql":"SELECT 1 FROM t","class":"simple"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow: %d %s, want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Reason != "queue_full" {
		t.Fatalf("shed body: %s", body)
	}

	// Drain while one query still runs; release it shortly after.
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(release)
	}()
	dres, err := http.Post(srv.URL+"/drain?deadline_ms=2000", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(dres.Body)
	dres.Body.Close()
	var rep DrainReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("drain body: %v %s", err, data)
	}
	wg.Wait()

	// Post-drain submissions → 503 + Retry-After.
	code, hdr, body = postQuery(t, srv, `{"sql":"SELECT 3 FROM t","class":"simple"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining: %d %s, want 503", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}

	// /debug/serve reconciles over HTTP.
	sres, err := http.Get(srv.URL + "/debug/serve")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(sres.Body)
	sres.Body.Close()
	var snap metrics.AdmissionSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Admitted+snap.Shed+snap.TimedOut+snap.Drained != snap.Submitted {
		t.Fatalf("HTTP snapshot does not reconcile: %+v", snap)
	}
	if !snap.Draining {
		t.Fatal("snapshot must report draining")
	}
}

func TestHTTPDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, _ := New(&stubExec{release: release}, Config{})
	srv := httptest.NewServer(NewMux(s, nil))
	defer srv.Close()
	code, _, body := postQuery(t, srv, `{"sql":"SELECT 1 FROM t","class":"simple","deadline_ms":20}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline: %d %s, want 504", code, body)
	}
	snap := s.AdmissionSnapshot()
	if snap.TimedOut != 1 {
		t.Fatalf("timed_out = %d, want 1", snap.TimedOut)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	s, _ := New(&stubExec{}, Config{})
	srv := httptest.NewServer(NewMux(s, nil))
	defer srv.Close()
	if code, _, _ := postQuery(t, srv, `not json`); code != http.StatusBadRequest {
		t.Fatalf("bad body: %d, want 400", code)
	}
	if code, _, _ := postQuery(t, srv, `{"sql":""}`); code != http.StatusBadRequest {
		t.Fatalf("empty sql: %d, want 400", code)
	}
	if code, _, _ := postQuery(t, srv, `{"sql":"SELECT 1 FROM t","class":"wizard"}`); code != http.StatusBadRequest {
		t.Fatalf("bad class: %d, want 400", code)
	}
}

// TestRequestIDOnEveryOutcome: a client that sends no X-Request-ID must
// still learn the ID its submission was logged under, whatever became of
// it — header and body agree, and exactly one query-log record carries
// that ID — so "why was my query shed?" can be answered from the log.
func TestRequestIDOnEveryOutcome(t *testing.T) {
	gate := make(chan struct{})
	exec := &gatedEngine{Engine: newServeTestEngine(t), gate: gate}
	var logBuf bytes.Buffer
	s, err := New(exec, Config{
		QueueCapacity: 1,
		ClassLimits:   map[workload.Class]int{workload.Simple: 1, workload.Intermediate: 1, workload.Complex: 1},
		Log:           qlog.New(&logBuf),
		SlowQuery:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := NewMux(s, nil)
	check := func(ctx context.Context, what, sql string, wantCode int, wantOutcome string) {
		t.Helper()
		body := fmt.Sprintf(`{"sql":%q,"class":"simple"}`, sql)
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != wantCode {
			t.Fatalf("%s: HTTP %d %s, want %d", what, w.Code, w.Body, wantCode)
		}
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%s: body %s: %v", what, w.Body, err)
		}
		id := w.Header().Get("X-Request-ID")
		if !strings.HasPrefix(id, "blu-") || eb.RequestID != id {
			t.Fatalf("%s: header X-Request-ID %q, body request_id %q, want one generated ID", what, id, eb.RequestID)
		}
		var outcomes []string
		for _, rec := range decodeLog(t, &logBuf) {
			if rec.RequestID == id {
				outcomes = append(outcomes, rec.Outcome)
			}
		}
		if len(outcomes) != 1 || outcomes[0] != wantOutcome {
			t.Fatalf("%s: log records under %s have outcomes %v, want one %s", what, id, outcomes, wantOutcome)
		}
	}

	const sql = "SELECT k, SUM(v) AS s FROM t GROUP BY k"
	var helpers sync.WaitGroup
	parkSubmissions(t, s, 1, &helpers) // holds the simple slot
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	check(ctx, "abandoned while queued", sql, http.StatusGatewayTimeout, qlog.OutcomeTimedOut)
	parkSubmissions(t, s, 1, &helpers) // fills the queue
	check(context.Background(), "shed", sql, http.StatusTooManyRequests, qlog.OutcomeShed)
	close(gate)
	helpers.Wait()
	check(context.Background(), "parse error", "SELECT nonsense FROM missing", http.StatusBadRequest, qlog.OutcomeError)
	reconcile(t, s)
}
