package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"blugpu/internal/bench"
	"blugpu/internal/metrics"
	"blugpu/internal/qlog"
	"blugpu/internal/sched"
	"blugpu/internal/serve"
	"blugpu/internal/workload"
)

// The two dataset scales the suites run at. sfGPU is the smallest where
// the optimizer routes work to the GPU, so scrapes cover the kernel,
// transfer and scheduler families; sfSmall is enough for the suites
// that only need queries to flow.
const (
	sfGPU   = 0.02
	sfSmall = 0.002
)

// check is one suite's run: its booted stack (serving suites only), the
// query log that stack writes, and the evidence to leave on failure.
type check struct {
	suite string
	dir   string // the -artifacts directory

	h    *bench.Harness
	st   *serve.Stack
	base string
	log  *lockedBuffer     // the booted stack's query log
	kept map[string][]byte // evidence for dump, by artifact file name
}

func (c *check) logf(format string, args ...any) {
	fmt.Printf("blucheck %s: %s\n", c.suite, fmt.Sprintf(format, args...))
}

// boot brings the serving stack up the way bluserve does — dataset,
// optional warm-up pass, serve.NewStack — on an ephemeral port, with the
// query log captured in c.log (stamped by opts.Clock when one is
// injected). A second boot replaces the first.
func (c *check) boot(sf float64, warmup bool, opts serve.StackOptions) error {
	c.close()
	c.log = &lockedBuffer{}
	c.logf("generating dataset (sf=%g)...", sf)
	h, err := bench.NewHarness(bench.Config{SF: sf})
	if err != nil {
		return err
	}
	if warmup {
		if _, err := h.RunSet(workload.BDInsights()); err != nil {
			return err
		}
	}
	opts.Config.Log = qlog.New(c.log, qlog.WithClock(opts.Clock))
	st, err := serve.NewStack(h.Eng, opts)
	if err != nil {
		return err
	}
	c.h, c.st = h, st
	c.base, err = st.Listen("127.0.0.1:0")
	return err
}

func (c *check) close() {
	if c.st != nil {
		c.st.Close()
		c.st = nil
	}
}

// get GETs a path on the booted stack and insists on one of the given
// status codes.
func (c *check) get(path string, want ...int) ([]byte, error) {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && !slices.Contains(want, resp.StatusCode) {
		err = fmt.Errorf("%s: HTTP %d, want %v: %.200s", path, resp.StatusCode, want, body)
	}
	return body, err
}

// scrape GETs /metrics, validates the exposition syntax and requires
// every named family (or literal series line) to be present.
func (c *check) scrape(needles ...string) ([]byte, error) {
	body, err := c.get("/metrics", http.StatusOK)
	if err != nil {
		return nil, err
	}
	if err := metrics.ValidateExposition(body); err != nil {
		return nil, fmt.Errorf("/metrics: invalid exposition: %w", err)
	}
	for _, needle := range needles {
		if !bytes.Contains(body, []byte(needle)) {
			return nil, fmt.Errorf("/metrics: %s missing from scrape", needle)
		}
	}
	return body, nil
}

// post POSTs payload as JSON, with X-Request-ID set when requestID is
// non-empty.
func (c *check) post(path string, payload map[string]any, requestID string) (int, http.Header, []byte, error) {
	body, _ := json.Marshal(payload) // strings and bools: cannot fail
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// postIdentified posts n queries cycled from the BD Insights suite, each
// under its own X-Request-ID ("<suite>-001", ...), and requires the ID
// back on the response header and in the body. With explain set every
// other query also asks for EXPLAIN ANALYZE, whose report must carry
// the same ID. It returns the IDs in posting order.
func (c *check) postIdentified(n int, explain bool) ([]string, error) {
	queries := workload.BDInsights()
	var ids []string
	for i := 0; i < n; i++ {
		q := queries[i%len(queries)]
		id := fmt.Sprintf("%s-%03d", c.suite, i+1)
		withExplain := explain && i%2 == 0
		code, hdr, body, err := c.post("/query", map[string]any{
			"sql": q.SQL, "name": q.ID, "session": c.suite, "explain": withExplain,
		}, id)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("%s (%s): HTTP %d: %.200s", id, q.ID, code, body)
		}
		if got := hdr.Get("X-Request-ID"); got != id {
			return nil, fmt.Errorf("%s: response header echoes %q", id, got)
		}
		var out struct {
			RequestID string `json:"request_id"`
			Explain   *struct {
				RequestID string `json:"request_id"`
			} `json:"explain"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return nil, fmt.Errorf("%s: bad response body: %w", id, err)
		}
		if out.RequestID != id {
			return nil, fmt.Errorf("%s: body carries request_id %q", id, out.RequestID)
		}
		if withExplain && (out.Explain == nil || out.Explain.RequestID != id) {
			return nil, fmt.Errorf("%s: EXPLAIN report missing or under another request_id: %.200s", id, body)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// records validates and decodes the query log written so far.
func (c *check) records() ([]qlog.Record, []byte, error) {
	data := c.log.Bytes()
	if err := qlog.Validate(data); err != nil {
		return nil, nil, fmt.Errorf("query log invalid: %w", err)
	}
	recs, err := qlog.Decode(data)
	return recs, data, err
}

// tripBreakers opens every device circuit breaker; recoverBreakers
// advances the virtual clock far past any probation and reports one
// successful probe per device, closing them again.
func (c *check) tripBreakers() {
	sch := c.h.Eng.Scheduler()
	for _, dev := range sch.Devices() {
		for i := 0; i < sched.DefaultFailThreshold; i++ {
			sch.ReportFailure(dev)
		}
	}
}

func (c *check) recoverBreakers() {
	sch := c.h.Eng.Scheduler()
	sch.Advance(10 * 60) // ten virtual minutes
	for _, dev := range sch.Devices() {
		sch.ReportSuccess(dev)
	}
}

// evidence maps artifact file names to the surfaces dump asks a failed
// suite's still-running stack for.
var evidence = map[string]string{
	"metrics.txt":     "/metrics",
	"trace_slow.json": "/debug/trace/slow",
	"alerts.json":     "/debug/alerts",
	"dash.html":       "/debug/dash",
}

// dump writes a failed suite's evidence under <artifacts>/<suite>/ so a
// CI failure ships it: every evidence surface that still answers, the
// query log, and the one-off responses the suite put in c.kept.
func (c *check) dump() {
	if c.st == nil {
		return
	}
	for name, path := range evidence {
		if body, err := c.get(path, http.StatusOK); err == nil {
			c.kept[name] = body
		}
	}
	c.kept["qlog.jsonl"] = c.log.Bytes()
	dir := filepath.Join(c.dir, c.suite)
	err := os.MkdirAll(dir, 0o755)
	for name, data := range c.kept {
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, name), data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "blucheck %s: artifacts: %v\n", c.suite, err)
		return
	}
	fmt.Fprintf(os.Stderr, "blucheck %s: evidence (%d files) in %s\n", c.suite, len(c.kept), dir)
}

// lockedBuffer is the query-log sink: the server, and the obsd loop
// logging alert transitions, write while a suite reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf.Bytes())
}
