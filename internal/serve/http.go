package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"blugpu/internal/columnar"
	"blugpu/internal/trace"
	"blugpu/internal/workload"
)

// queryRequest is the POST /query body. The session can also ride the
// X-Session header; the body value wins when both are set.
type queryRequest struct {
	SQL        string `json:"sql"`
	Session    string `json:"session,omitempty"`
	Class      string `json:"class,omitempty"` // simple | intermediate | complex; empty classifies
	Name       string `json:"name,omitempty"`
	Explain    bool   `json:"explain,omitempty"`
	DeadlineMs int    `json:"deadline_ms,omitempty"`
}

// queryResponse is the POST /query success body.
type queryResponse struct {
	Session      string          `json:"session"`
	Query        string          `json:"query"`
	RequestID    string          `json:"request_id"`
	Class        string          `json:"class"`
	Columns      []string        `json:"columns"`
	Rows         [][]any         `json:"rows"`
	RowCount     int             `json:"row_count"`
	ModeledMs    float64         `json:"modeled_ms"`
	WallMs       float64         `json:"wall_ms"`
	WaitMs       float64         `json:"wait_ms"`
	GPUUsed      bool            `json:"gpu_used"`
	PlaceRetries int             `json:"place_retries"`
	Explain      json.RawMessage `json:"explain,omitempty"`
}

// errorBody is every non-200 response.
type errorBody struct {
	Error      string `json:"error"`
	Reason     string `json:"reason,omitempty"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
	RequestID  string `json:"request_id,omitempty"`
}

// NewMux builds the serving surface:
//
//	POST /query        run SQL under admission control (JSON in/out)
//	GET  /sessions     live session list
//	POST /drain        stop admitting, finish in-flight (?deadline_ms=N)
//	GET  /debug/serve  the raw admission snapshot (counter reconciliation)
//
// Unmatched paths fall through to admin (the metrics.AdminMux surface)
// when it is non-nil, so one listener serves both layers.
func NewMux(s *Server, admin http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, req *http.Request) {
		handleQuery(s, w, req)
	})
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, s.Sessions())
	})
	mux.HandleFunc("/drain", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
			return
		}
		deadline := time.Duration(0)
		if ms := req.URL.Query().Get("deadline_ms"); ms != "" {
			n, err := strconv.Atoi(ms)
			if err != nil || n < 0 {
				writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad deadline_ms"})
				return
			}
			deadline = time.Duration(n) * time.Millisecond
		}
		writeJSON(w, http.StatusOK, s.Drain(deadline))
	})
	mux.HandleFunc("/debug/serve", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, s.AdmissionSnapshot())
	})
	mux.HandleFunc("/debug/trace/", func(w http.ResponseWriter, req *http.Request) {
		handleTrace(s, w, req)
	})
	if admin != nil {
		mux.Handle("/", admin)
	}
	return mux
}

// handleTrace serves the live trace ring as Chrome trace-event JSON:
//
//	GET /debug/trace/slow           top-K slowest retained traces
//	GET /debug/trace/<request-id>   one query's retained trace
//
// Evicted or unknown request IDs return 404 — the ring is a bounded
// sample, not an archive.
func handleTrace(s *Server, w http.ResponseWriter, req *http.Request) {
	ring := s.TraceRing()
	key := strings.TrimPrefix(req.URL.Path, "/debug/trace/")
	var entries []trace.RingEntry
	if key == "slow" {
		entries = ring.Slow()
		if len(entries) == 0 {
			http.Error(w, "no slow traces retained", http.StatusNotFound)
			return
		}
	} else {
		e, ok := ring.Get(key)
		if !ok {
			http.Error(w, fmt.Sprintf("no retained trace for request %q (evicted or never traced)", key), http.StatusNotFound)
			return
		}
		entries = []trace.RingEntry{e}
	}
	w.Header().Set("Content-Type", "application/json")
	trace.ExportChromeEntries(w, entries)
}

func handleQuery(s *Server, w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	body, err := io.ReadAll(io.LimitReader(req.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	var qr queryRequest
	if err := json.Unmarshal(body, &qr); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if qr.Session == "" {
		qr.Session = req.Header.Get("X-Session")
	}
	// The client's X-Request-ID is honored as the correlation key; an
	// absent header gets a server-generated ID. Either way the ID is
	// echoed back in the header and the body, whatever the outcome.
	reqID := req.Header.Get("X-Request-ID")

	// Serializing inside the hook lets the server time real JSON
	// encoding as the query's serialize phase; the handler then just
	// copies the buffer out.
	var buf bytes.Buffer
	serialize := func(resp *Response) (int, error) {
		out := queryResponse{
			Session:      resp.Session,
			Query:        resp.Query,
			RequestID:    resp.RequestID,
			Class:        string(resp.Class),
			Columns:      resp.Result.Columns,
			Rows:         TableRows(resp.Result.Table.Columns()),
			RowCount:     resp.Result.Table.Rows(),
			ModeledMs:    resp.Result.Modeled.Milliseconds(),
			WallMs:       float64(resp.ExecWall) / float64(time.Millisecond),
			WaitMs:       float64(resp.Wait) / float64(time.Millisecond),
			GPUUsed:      resp.Result.GPUUsed,
			PlaceRetries: resp.PlaceRetries,
		}
		if resp.Report != nil {
			if data, err := resp.Report.JSON(); err == nil {
				out.Explain = data
			}
		}
		if err := json.NewEncoder(&buf).Encode(out); err != nil {
			return 0, err
		}
		return buf.Len(), nil
	}

	resp, err := s.Do(req.Context(), Request{
		Session:   qr.Session,
		SQL:       qr.SQL,
		Class:     workload.Class(qr.Class),
		Name:      qr.Name,
		Explain:   qr.Explain,
		Deadline:  time.Duration(qr.DeadlineMs) * time.Millisecond,
		RequestID: reqID,
		Serialize: serialize,
	})
	if err != nil {
		writeQueryError(w, err, reqID)
		return
	}
	w.Header().Set("X-Request-ID", resp.RequestID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// writeQueryError maps serving errors onto status codes: shed → 429
// with Retry-After, drain refusals → 503 with Retry-After, deadline →
// 504, everything else (parse/plan/execution) → 400. The request ID is
// the one Do logged; a request rejected uncounted has only clientID.
func writeQueryError(w http.ResponseWriter, err error, clientID string) {
	body := errorBody{Error: err.Error(), RequestID: clientID}
	code := http.StatusBadRequest
	var refused *RefusedError
	var counted *requestError
	switch {
	case errors.As(err, &refused):
		// RetryAfter is derived at shed time from the queue depth and
		// the recent dequeue rate (see retryAfterHint); round up so the
		// header never promises an earlier retry than the hint.
		retry := int((refused.RetryAfter + time.Second - 1) / time.Second)
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		code = http.StatusTooManyRequests
		if refused.Draining {
			code = http.StatusServiceUnavailable
		}
		body.Reason, body.RetryAfter, body.RequestID = refused.Reason, retry, refused.RequestID
	case errors.As(err, &counted):
		body.RequestID = counted.id
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			code, body.Reason = http.StatusGatewayTimeout, "deadline"
		}
	}
	if body.RequestID != "" {
		w.Header().Set("X-Request-ID", body.RequestID)
	}
	writeJSON(w, code, body)
}

// TableRows materializes result columns row-major for JSON: NULL → null,
// integers and floats as numbers, strings as strings. Exported so other
// serialize hooks (the sustained bench) encode the same client payload
// the HTTP handler does.
func TableRows(cols []columnar.Column) [][]any {
	if len(cols) == 0 {
		return [][]any{}
	}
	n := cols[0].Len()
	rows := make([][]any, n)
	for i := 0; i < n; i++ {
		row := make([]any, len(cols))
		for j, c := range cols {
			v := c.Value(i)
			switch {
			case v.Null:
				row[j] = nil
			case v.Type == columnar.Int64:
				row[j] = v.I
			case v.Type == columnar.Float64:
				row[j] = v.F
			default:
				row[j] = v.S
			}
		}
		rows[i] = row
	}
	return rows
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(body)
}
