package metrics

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"blugpu/internal/explain"
	"blugpu/internal/gpu"
	"blugpu/internal/monitor"
	"blugpu/internal/sched"
	"blugpu/internal/vtime"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminMetricsEndpoint(t *testing.T) {
	src := testSources(t)
	srv := httptest.NewServer(AdminMux(func() Sources { return src }))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	if err := ValidateExposition([]byte(body)); err != nil {
		t.Fatalf("scraped exposition invalid: %v\n%s", err, body)
	}
	// The acceptance surface: kernels, transfers, scheduler, faults and
	// per-device memory must all be present in one scrape.
	for _, want := range []string{
		"blu_kernel_executions_total{kernel=\"grpby_k1\"} 2",
		"blu_transfer_bytes_total{direction=\"h2d\"} 1048576",
		"blu_sched_placements_total{result=\"ok\"} 1",
		"blu_faults_injected_total{site=\"kernel\"} 1",
		"blu_device_memory_total_bytes{device=\"0\"}",
		"blu_device_reserved_bytes{device=\"0\"} 1048576",
		"blu_device_quarantined{device=\"1\"} 1",
		"blu_query_latency_seconds_bucket{query=\"bd-complex-1\",le=\"+Inf\"} 2",
		"blu_optimizer_decisions_total{decision=\"gpu\",reason=\"eligible\"} 2",
		"blu_optimizer_decisions_total{decision=\"cpu\",reason=\"groups<=T2\"} 1",
		"blu_kmv_relative_error_count 2",
		"blu_gpu_enabled 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

func TestHealthzStates(t *testing.T) {
	spec := vtime.TeslaK40()
	devices := []*gpu.Device{gpu.NewDevice(0, spec), gpu.NewDevice(1, spec)}
	s, err := sched.New(devices...)
	if err != nil {
		t.Fatal(err)
	}
	src := Sources{Monitor: monitor.New(), Sched: s, Devices: devices, GPUEnabled: true}
	srv := httptest.NewServer(AdminMux(func() Sources { return src }))
	defer srv.Close()

	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthy fleet: code=%d body=%s", code, body)
	}

	for i := 0; i < sched.DefaultFailThreshold; i++ {
		s.ReportFailure(devices[0])
	}
	code, body = get(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"degraded"`) {
		t.Fatalf("one quarantined device: code=%d body=%s", code, body)
	}
	if !strings.Contains(body, `"quarantined":true`) {
		t.Fatalf("healthz must expose breaker state: %s", body)
	}

	for i := 0; i < sched.DefaultFailThreshold; i++ {
		s.ReportFailure(devices[1])
	}
	code, body = get(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"status":"unhealthy"`) {
		t.Fatalf("fully quarantined fleet: code=%d body=%s", code, body)
	}
}

func TestHealthzCPUOnly(t *testing.T) {
	src := Sources{Monitor: monitor.New()}
	srv := httptest.NewServer(AdminMux(func() Sources { return src }))
	defer srv.Close()
	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("CPU-only engine must be ok: code=%d body=%s", code, body)
	}
	if !strings.Contains(body, `"gpu_enabled":false`) {
		t.Fatalf("want gpu_enabled false: %s", body)
	}
}

func TestDebugQueries(t *testing.T) {
	src := testSources(t)
	srv := httptest.NewServer(AdminMux(func() Sources { return src }))
	defer srv.Close()
	code, body := get(t, srv, "/debug/queries")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/queries: %d", code)
	}
	for _, want := range []string{"bd-complex-1", "rolap-07", "flame summary", "op:groupby"} {
		if !strings.Contains(body, want) {
			t.Errorf("debug/queries missing %q:\n%s", want, body)
		}
	}
}

func TestDebugExplain(t *testing.T) {
	src := testSources(t)
	src.Explain = func(_ context.Context, sql string) (*explain.Report, error) {
		if sql != "SELECT 1" {
			return nil, errors.New("bad sql")
		}
		return &explain.Report{
			Schema: explain.ReportSchema, Query: "q1", Plan: "scan", Thresholds: "T1=1 T2=2 T3=3",
			Ops: []explain.OpReport{{Op: "scan", Attributed: true}},
		}, nil
	}
	srv := httptest.NewServer(AdminMux(func() Sources { return src }))
	defer srv.Close()

	code, body := get(t, srv, "/debug/explain?q="+url.QueryEscape("SELECT 1"))
	if code != http.StatusOK {
		t.Fatalf("GET /debug/explain: %d %s", code, body)
	}
	rep, err := explain.Decode([]byte(body))
	if err != nil {
		t.Fatalf("response is not a report: %v\n%s", err, body)
	}
	if rep.Query != "q1" || len(rep.Ops) != 1 {
		t.Fatalf("unexpected report: %+v", rep)
	}

	code, body = get(t, srv, "/debug/explain?format=text&q="+url.QueryEscape("SELECT 1"))
	if code != http.StatusOK || !strings.Contains(body, "EXPLAIN ANALYZE q1") {
		t.Fatalf("text format: code=%d body=%s", code, body)
	}

	if code, _ := get(t, srv, "/debug/explain"); code != http.StatusBadRequest {
		t.Fatalf("missing q must 400, got %d", code)
	}
	if code, _ := get(t, srv, "/debug/explain?q=bogus"); code != http.StatusBadRequest {
		t.Fatalf("explain error must 400, got %d", code)
	}

	// Without an Explain source the endpoint reports itself absent.
	bare := testSources(t)
	srv2 := httptest.NewServer(AdminMux(func() Sources { return bare }))
	defer srv2.Close()
	if code, _ := get(t, srv2, "/debug/explain?q=x"); code != http.StatusNotFound {
		t.Fatalf("no source must 404, got %d", code)
	}
}

func TestServeEphemeralPort(t *testing.T) {
	src := testSources(t)
	srv, ln, err := Serve("127.0.0.1:0", func() Sources { return src })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := ValidateExposition(body); err != nil {
		t.Fatal(err)
	}
}
