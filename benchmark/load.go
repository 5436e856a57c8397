package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"blugpu/internal/workload"
)

// sample is one operation as the client saw it. Times are offsets from
// the start of the sequence it belongs to. Latency runs from Due in the
// open loop (so a stall charges every request it delays) and from Start
// in closed loops.
type sample struct {
	Stmt      string  `json:"stmt"`
	Class     string  `json:"class"`
	DueMs     float64 `json:"due_ms"`
	StartMs   float64 `json:"start_ms"`
	EndMs     float64 `json:"end_ms"`
	LatencyMs float64 `json:"latency_ms"`
	OK        bool    `json:"ok"`
	Err       string  `json:"err,omitempty"`
	// From the response body (served runs) or the Result (paper_serial).
	WallMs    float64 `json:"wall_ms"`
	WaitMs    float64 `json:"wait_ms"`
	ModeledMs float64 `json:"modeled_ms"`
	GPUUsed   bool    `json:"gpu_used"`

	body []byte // raw 200 body; decoded and checked after the window
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newClient returns an HTTP client that keeps at most `clients`
// keep-alive connections to the server and opens no others.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
	}}
}

// drive sends reqs to base/query from `clients` workers that each take
// the next unsent request. Closed loop: a worker sends as soon as it is
// free. Open loop: it first waits for the request's due time, and is
// late when every worker was still busy then. Bodies are kept raw so
// that checking results costs the server no CPU during the window.
func drive(hc *http.Client, base string, stmts []workload.Query, reqs []request, open bool) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			session := fmt.Sprintf("bench-%d", c)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if open {
					time.Sleep(r.Due - time.Since(t0))
				}
				q := stmts[r.Stmt]
				s := sample{Stmt: q.ID, Class: string(q.Class), DueMs: ms(r.Due)}
				start := time.Since(t0)
				body, err := post(hc, base, session, q)
				end := time.Since(t0)
				s.StartMs, s.EndMs = ms(start), ms(end)
				s.LatencyMs = s.EndMs - s.StartMs
				if open {
					s.LatencyMs = s.EndMs - s.DueMs
				}
				if err != nil {
					s.Err = err.Error()
				}
				s.body = body
				out[i] = s
			}
		}(c)
	}
	wg.Wait()
	return out
}

func post(hc *http.Client, base, session string, q workload.Query) ([]byte, error) {
	reqBody, err := json.Marshal(map[string]string{
		"sql": q.SQL, "session": session, "class": string(q.Class), "name": q.ID,
	})
	if err != nil {
		return nil, err
	}
	resp, err := hc.Post(base+"/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)
	}
	return body, nil
}

// verify decodes each kept body, fills the response fields, and checks
// the rows against the reference. A transport error, a non-200, an
// undecodable body and a result mismatch all leave OK false.
func verify(samples []sample, refs map[string]table) {
	for i := range samples {
		s := &samples[i]
		if s.Err != "" {
			continue
		}
		var r struct {
			Columns   []string `json:"columns"`
			Rows      [][]any  `json:"rows"`
			ModeledMs float64  `json:"modeled_ms"`
			WallMs    float64  `json:"wall_ms"`
			WaitMs    float64  `json:"wait_ms"`
			GPUUsed   bool     `json:"gpu_used"`
		}
		dec := json.NewDecoder(bytes.NewReader(s.body))
		dec.UseNumber()
		if err := dec.Decode(&r); err != nil {
			s.Err = "bad response body: " + err.Error()
			continue
		}
		s.body = nil
		s.ModeledMs, s.WallMs, s.WaitMs, s.GPUUsed = r.ModeledMs, r.WallMs, r.WaitMs, r.GPUUsed
		got, err := tableFromRows(r.Columns, r.Rows)
		if err == nil {
			err = compareTables(refs[s.Stmt], got)
		}
		if err != nil {
			s.Err = "result mismatch: " + err.Error()
			continue
		}
		s.OK = true
	}
}
