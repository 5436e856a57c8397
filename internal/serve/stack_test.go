package serve

import (
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"blugpu/internal/bench"
	"blugpu/internal/metrics"
)

// routeLine matches one route row of bluserve's header comment:
// an optional method, then the path.
var routeLine = regexp.MustCompile(`(?m)^//\t(?:(GET|POST) +)?(/[^\s]+)`)

// TestStackServesDocumentedRoutes boots the assembled stack and walks
// the route table in cmd/bluserve's header comment: the comment is the
// operator-facing contract, so every row must be mounted, and /metrics
// must be valid exposition text.
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

	h, err := bench.NewHarness(bench.Config{SF: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	// A 1µs slow threshold puts the one query below into the slow-trace
	// set, so /debug/trace/slow has something to serve.
	st, err := NewStack(h.Eng, StackOptions{Config: Config{SlowQuery: time.Microsecond}, Background: true, Pprof: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base, err := st.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	do := func(method, path, body, requestID string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
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
		return resp.StatusCode, data
	}
	const query = `{"sql":"SELECT ss_store_sk, SUM(ss_net_paid) AS total FROM store_sales GROUP BY ss_store_sk"}`
	if code, body := do(http.MethodPost, "/query", query, "route-1"); code != http.StatusOK {
		t.Fatalf("POST /query: HTTP %d: %s", code, body)
	}

	drainDocumented := false
	for _, r := range routes {
		method, path := r[1], strings.Replace(r[2], "{request-id}", "route-1", 1)
		if path == "/drain" {
			drainDocumented = true // visited last: it ends admission
			continue
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
		if path == "/metrics" {
			if err := metrics.ValidateExposition(data); err != nil {
				t.Errorf("/metrics: %v", err)
			}
		}
	}
	if !drainDocumented {
		t.Error("bluserve's header no longer documents POST /drain")
	}
	if code, data := do(http.MethodPost, "/drain", "", ""); code != http.StatusOK || !st.Server.Draining() {
		t.Errorf("POST /drain: HTTP %d: %s", code, data)
	}
}
