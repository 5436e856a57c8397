package qlog

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Validate checks a query-log stream as Decode does, without keeping
// the records.
func Validate(data []byte) error {
	_, err := Decode(data)
	return err
}

// fixedClock steps one second per call from a pinned instant, so the
// golden log is byte-stable.
func fixedClock() func() time.Time {
	t := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

// goldenRecords covers the four scenarios the serving layer emits:
// a happy GPU query, a shed submission, a deadline timeout, and a GPU
// fault that fell back to the CPU path — plus the slow_query event a
// threshold breach appends.
func goldenRecords() []Record {
	happy := Record{
		RequestID: "blu-000001", Session: "analyst", Query: "serve-1",
		Class: "intermediate", SQL: "SELECT k, SUM(v) FROM t GROUP BY k",
		Outcome: OutcomeOK, Rows: 7, ResultBytes: 412, GPUUsed: true,
		Devices: []int{0, 1}, TransferBytes: 65536, ModeledMs: 1.25,
		Phases: Phases{
			QueueWaitMs: 0.125, AdmissionMs: 0.002, ParseMs: 0.04,
			PlanMs: 0.03, ExecMs: 2.5, ExecGPUMs: 1.8, ExecHostMs: 0.4,
			ExecGatherMs: 0.2, SerializeMs: 0.09,
		},
		TotalMs: 2.801,
	}
	shed := Record{
		RequestID: "req-client-7", Session: "analyst", Class: "complex",
		SQL: "SELECT * FROM big JOIN bigger", Outcome: OutcomeShed,
		Reason: "queue_full", TotalMs: 0.011,
	}
	timeout := Record{
		RequestID: "blu-000003", Query: "serve-3", Class: "simple",
		SQL: "SELECT v FROM t", Outcome: OutcomeTimedOut,
		Error:   "serve: query serve-3 exceeded its deadline: context deadline exceeded",
		Phases:  Phases{QueueWaitMs: 4.2, ExecMs: 10.0},
		TotalMs: 14.21,
	}
	fallback := Record{
		RequestID: "blu-000004", Query: "serve-4", Class: "intermediate",
		SQL: "SELECT k, COUNT(*) FROM t GROUP BY k", Outcome: OutcomeOK,
		Rows: 7, GPUUsed: false, PlaceRetries: 2,
		FallbackCause: "gpu: injected kernel fault",
		Phases: Phases{
			QueueWaitMs: 0.3, AdmissionMs: 0.8, ParseMs: 0.05, PlanMs: 0.02,
			ExecMs: 5.1, ExecHostMs: 4.9, SerializeMs: 0.07,
		},
		TotalMs: 6.35,
	}
	slow := happy
	slow.Event = EventSlow
	slow.RequestID = "blu-000005"
	slow.Slow = true
	slow.SlowThresholdMs = 250
	slow.TotalMs = 312.44
	return []Record{happy, shed, timeout, fallback, slow}
}

func TestGoldenLog(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, WithClock(fixedClock()))
	for _, rec := range goldenRecords() {
		if err := l.Log(rec); err != nil {
			t.Fatal(err)
		}
	}
	if l.Records() != 5 {
		t.Fatalf("records = %d, want 5", l.Records())
	}
	path := filepath.Join("testdata", "qlog_golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("query log diverged from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
	// The golden must also satisfy the validator the smoke check runs.
	if err := Validate(want); err != nil {
		t.Fatalf("golden log fails validation: %v", err)
	}
	recs, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("decoded %d records, want 5", len(recs))
	}
	if recs[0].Phases.SumMs() == 0 {
		t.Fatal("decoded phases lost their values")
	}
}

func TestPhaseSumExcludesExecBreakdown(t *testing.T) {
	p := Phases{
		QueueWaitMs: 1, AdmissionMs: 2, ParseMs: 3, PlanMs: 4,
		ExecMs: 10, ExecGPUMs: 6, ExecHostMs: 3, ExecGatherMs: 1,
		SerializeMs: 5,
	}
	if got := p.SumMs(); got != 25 {
		t.Fatalf("SumMs = %v, want 25 (GPU/host/gather are inside exec, not additional)", got)
	}
}

func TestMsRounding(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want float64
	}{
		{0, 0},
		{time.Millisecond, 1},
		{1500 * time.Nanosecond, 0.002}, // rounds to 2µs
		{499 * time.Nanosecond, 0},
		{2*time.Millisecond + 345*time.Microsecond, 2.345},
	} {
		if got := Ms(tc.d); got != tc.want {
			t.Fatalf("Ms(%v) = %v, want %v", tc.d, got, tc.want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	mk := func(mutate func(*Record)) []byte {
		rec := Record{RequestID: "r1", Outcome: OutcomeOK}
		var buf bytes.Buffer
		l := New(&buf, WithClock(fixedClock()))
		l.Log(rec)
		recs := buf.String()
		if mutate != nil {
			var r Record
			r = rec
			mutate(&r)
			buf.Reset()
			l2 := New(&buf, WithClock(fixedClock()))
			l2.Log(r)
			recs = buf.String()
		}
		return []byte(recs)
	}
	if err := Validate(nil); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty log must be rejected, got %v", err)
	}
	if err := Validate(mk(nil)); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	if err := Validate(mk(func(r *Record) { r.RequestID = "" })); err == nil {
		t.Fatal("missing request_id must be rejected")
	}
	if err := Validate(mk(func(r *Record) { r.Outcome = "exploded" })); err == nil {
		t.Fatal("unknown outcome must be rejected")
	}
	if err := Validate(mk(func(r *Record) { r.TotalMs = -1 })); err == nil {
		t.Fatal("negative total_ms must be rejected")
	}
	if err := Validate(mk(func(r *Record) { r.Phases.ExecMs = -0.5 })); err == nil {
		t.Fatal("negative phase must be rejected")
	}
	if err := Validate([]byte(`{"schema":99,"ts":"2026-01-02T03:04:06Z","event":"query","request_id":"x","outcome":"ok","phases":{"queue_wait_ms":0,"admission_ms":0,"parse_ms":0,"plan_ms":0,"exec_ms":0,"serialize_ms":0},"total_ms":0}` + "\n")); err == nil {
		t.Fatal("unknown schema must be rejected")
	}
	if err := Validate([]byte(`{"schema":1,"ts":"x","event":"query","request_id":"x","outcome":"ok","unknown_field":1,"phases":{"queue_wait_ms":0,"admission_ms":0,"parse_ms":0,"plan_ms":0,"exec_ms":0,"serialize_ms":0},"total_ms":0}` + "\n")); err == nil {
		t.Fatal("unknown fields must be rejected")
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if got := RequestIDFrom(ctx); got != "" {
		t.Fatalf("empty ctx carries %q", got)
	}
	ctx = WithRequestID(ctx, "blu-42")
	if got := RequestIDFrom(ctx); got != "blu-42" {
		t.Fatalf("RequestIDFrom = %q", got)
	}
	if WithRequestID(context.Background(), "") != context.Background() {
		t.Fatal("empty ID must not allocate a context")
	}
	if got := RequestIDFrom(nil); got != "" {
		t.Fatalf("nil ctx carries %q", got)
	}
}
