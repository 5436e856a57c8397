// Package qlog is the structured query log: one JSON record per query
// with the wall-clock phase breakdown the modeled-time surfaces cannot
// provide. It also owns the request-ID context plumbing — the stable
// per-query ID the serving layer assigns (or honors from X-Request-ID)
// and threads through engine attrs, trace spans, EXPLAIN ANALYZE
// reports and this log, so one grep joins every surface.
//
// Records encode with encoding/json over a fixed struct, so the field
// order is deterministic; the clock is injectable, so the golden test
// locks the output byte-for-byte. Wall-clock values are real time —
// informational, never gated — while the modeled_ms column carries the
// bit-stable virtual time alongside for cross-reference.
package qlog

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// Schema versions the record layout. Consumers reject unknown schemas.
const Schema = 1

// Event names the record kinds.
const (
	EventQuery = "query"      // one per resolved submission
	EventSlow  = "slow_query" // additionally emitted over the slow threshold
	EventAlert = "alert"      // one per alert-rule state transition
)

// Outcomes mirror the serving layer's double-entry ledger, plus "error"
// for admitted queries that failed in parse/plan/execution.
const (
	OutcomeOK       = "ok"
	OutcomeError    = "error"
	OutcomeShed     = "shed"
	OutcomeTimedOut = "timed_out"
	OutcomeDrained  = "drained"
)

var validOutcomes = map[string]bool{
	OutcomeOK: true, OutcomeError: true, OutcomeShed: true,
	OutcomeTimedOut: true, OutcomeDrained: true,
}

var validEvents = map[string]bool{EventQuery: true, EventSlow: true, EventAlert: true}

// Alert transition destinations carried by EventAlert records.
var validAlertStates = map[string]bool{"pending": true, "firing": true, "resolved": true}

// Phases is the wall-clock phase breakdown of one query, in
// milliseconds. QueueWait covers enqueue→admit; Admission the
// breaker-aware placement backoff; Parse/Plan the SQL front-end; Exec
// the engine execution (with the GPU-kernel / host-evaluator / gather
// split inside it, informational); Serialize the result encoding. The
// named phases sum to within a few percent of the record's TotalMs —
// the residue is scheduling jitter and accounting overhead.
type Phases struct {
	QueueWaitMs  float64 `json:"queue_wait_ms"`
	AdmissionMs  float64 `json:"admission_ms"`
	ParseMs      float64 `json:"parse_ms"`
	PlanMs       float64 `json:"plan_ms"`
	ExecMs       float64 `json:"exec_ms"`
	ExecGPUMs    float64 `json:"exec_gpu_ms,omitempty"`
	ExecHostMs   float64 `json:"exec_host_ms,omitempty"`
	ExecGatherMs float64 `json:"exec_gather_ms,omitempty"`
	SerializeMs  float64 `json:"serialize_ms"`
}

// SumMs totals the top-level phases (the GPU/host/gather split is a
// breakdown *inside* ExecMs, not additional time).
func (p Phases) SumMs() float64 {
	return p.QueueWaitMs + p.AdmissionMs + p.ParseMs + p.PlanMs + p.ExecMs + p.SerializeMs
}

// Record is one query-log line. Field order here is the JSON field
// order — append new fields at the end to keep old goldens readable.
type Record struct {
	Schema    int    `json:"schema"`
	TS        string `json:"ts"` // RFC3339Nano UTC, stamped by the Logger
	Event     string `json:"event"`
	RequestID string `json:"request_id"`
	Session   string `json:"session,omitempty"`
	Query     string `json:"query,omitempty"` // resolved query name
	Class     string `json:"class,omitempty"`
	SQL       string `json:"sql,omitempty"`
	Outcome   string `json:"outcome"`
	Error     string `json:"error,omitempty"`
	Reason    string `json:"reason,omitempty"` // shed/drain refusal reason

	Rows          int     `json:"rows,omitempty"`
	ResultBytes   int     `json:"result_bytes,omitempty"`
	GPUUsed       bool    `json:"gpu_used,omitempty"`
	Devices       []int   `json:"devices,omitempty"` // device IDs that ran kernels
	PlaceRetries  int     `json:"place_retries,omitempty"`
	FallbackCause string  `json:"fallback_cause,omitempty"` // GPU fault → CPU fallback
	TransferBytes int64   `json:"transfer_bytes,omitempty"` // PCIe bytes moved
	ModeledMs     float64 `json:"modeled_ms,omitempty"`     // bit-stable virtual time

	Slow            bool    `json:"slow,omitempty"`
	SlowThresholdMs float64 `json:"slow_threshold_ms,omitempty"`

	Phases  Phases  `json:"phases"`
	TotalMs float64 `json:"total_ms"` // submit→resolve wall time

	// Alert fields, set only on EventAlert records (obsd rule-engine
	// state transitions). Appended at the end per the field-order
	// contract above.
	Alert         string  `json:"alert,omitempty"`
	AlertState    string  `json:"alert_state,omitempty"` // pending | firing | resolved
	AlertSeverity string  `json:"alert_severity,omitempty"`
	AlertValue    float64 `json:"alert_value,omitempty"`
}

// Ms converts a duration to milliseconds rounded to 1 µs resolution,
// the precision the log carries.
func Ms(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Microsecond)) / 1000
}

// Option configures a Logger.
type Option func(*Logger)

// WithClock injects the timestamp source (tests pin it for byte-stable
// goldens). nil restores time.Now.
func WithClock(now func() time.Time) Option {
	return func(l *Logger) {
		if now != nil {
			l.now = now
		}
	}
}

// Logger writes one JSON record per line. Safe for concurrent use.
type Logger struct {
	mu      sync.Mutex
	w       io.Writer
	now     func() time.Time
	records uint64
}

// New builds a Logger over w.
func New(w io.Writer, opts ...Option) *Logger {
	l := &Logger{w: w, now: time.Now}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Log stamps the record (Schema, TS) and writes it as one JSON line.
func (l *Logger) Log(rec Record) error {
	if l == nil {
		return nil
	}
	rec.Schema = Schema
	if rec.Event == "" {
		rec.Event = EventQuery
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.TS = l.now().UTC().Format(time.RFC3339Nano)
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := l.w.Write(data); err != nil {
		return err
	}
	l.records++
	return nil
}

// Records returns the number of records written.
func (l *Logger) Records() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Decode parses a query-log stream into records, skipping blank lines.
// Every line must decode as a Record with a known schema, event and
// outcome, a non-empty request ID, a parseable timestamp, and
// non-negative phase and total times, so every test that decodes a
// server's log (TestRequestIDJoin, TestQlogOutcomeLedger) holds the log
// to that.
func Decode(data []byte) ([]Record, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		rec, err := decodeRecord(text)
		if err != nil {
			return nil, fmt.Errorf("qlog: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("qlog: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("qlog: empty log")
	}
	return out, nil
}

// decodeRecord decodes and checks one line of the stream.
func decodeRecord(text []byte) (Record, error) {
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(text))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return rec, err
	}
	switch {
	case dec.InputOffset() != int64(len(text)):
		return rec, fmt.Errorf("data after the record")
	case rec.Schema != Schema:
		return rec, fmt.Errorf("schema %d, want %d", rec.Schema, Schema)
	case !validEvents[rec.Event]:
		return rec, fmt.Errorf("unknown event %q", rec.Event)
	case rec.TotalMs < 0:
		return rec, fmt.Errorf("negative total_ms")
	}
	if rec.Event == EventAlert {
		// Alert transitions carry no request or outcome; they must
		// name the rule and a known destination state instead.
		switch {
		case rec.Alert == "":
			return rec, fmt.Errorf("alert event missing alert name")
		case !validAlertStates[rec.AlertState]:
			return rec, fmt.Errorf("unknown alert_state %q", rec.AlertState)
		}
	} else {
		switch {
		case rec.RequestID == "":
			return rec, fmt.Errorf("missing request_id")
		case !validOutcomes[rec.Outcome]:
			return rec, fmt.Errorf("unknown outcome %q", rec.Outcome)
		}
	}
	if _, err := time.Parse(time.RFC3339Nano, rec.TS); err != nil {
		return rec, fmt.Errorf("bad ts: %w", err)
	}
	for _, ph := range []struct {
		name string
		v    float64
	}{
		{"queue_wait_ms", rec.Phases.QueueWaitMs},
		{"admission_ms", rec.Phases.AdmissionMs},
		{"parse_ms", rec.Phases.ParseMs},
		{"plan_ms", rec.Phases.PlanMs},
		{"exec_ms", rec.Phases.ExecMs},
		{"serialize_ms", rec.Phases.SerializeMs},
	} {
		if ph.v < 0 {
			return rec, fmt.Errorf("negative %s", ph.name)
		}
	}
	return rec, nil
}

// ctxKey keys the request ID on a context.Context.
type ctxKey struct{}

// WithRequestID returns ctx carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, id)
}

// RequestIDFrom extracts the request ID from ctx, "" when absent.
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}
