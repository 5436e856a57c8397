package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"blugpu/internal/prof"
	"blugpu/internal/qlog"
	"blugpu/internal/workload"
)

// TestProfQlogReconciliation is the double-entry proof for the resource
// accountant: for the same set of request IDs, the blu_prof_* wall
// ledger (per class, per phase) must equal the query log's phase sums.
// Both ledgers are fed the same measured durations, so the only slack
// allowed is the query log's microsecond rounding — 0.5µs per record
// per phase.
func TestProfQlogReconciliation(t *testing.T) {
	eng := newServeTestEngine(t)
	var logBuf bytes.Buffer
	acct := prof.NewAccountant()
	s, err := New(eng, Config{
		Log:       qlog.New(&logBuf),
		Prof:      acct,
		SlowQuery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	queries := []struct {
		sql   string
		class workload.Class
	}{
		{"SELECT k, SUM(v) AS s FROM t GROUP BY k", workload.Simple},
		{"SELECT k, SUM(v) AS s FROM t GROUP BY k", workload.Simple},
		{"SELECT k, SUM(f) AS s FROM t GROUP BY k", workload.Intermediate},
		{"SELECT k, COUNT(v) AS c FROM t GROUP BY k", workload.Complex},
	}
	serializer := func(resp *Response) (int, error) {
		return len(resp.Query) + resp.Result.Table.Rows(), nil
	}
	for i, q := range queries {
		_, err := s.Do(context.Background(), Request{
			SQL:       q.sql,
			Class:     q.class,
			RequestID: fmt.Sprintf("prof-rec-%d", i),
			Serialize: serializer,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Ledger A: the query log's per-(class, phase) sums over ok records.
	type cell struct{ class, phase string }
	logMs := map[cell]float64{}
	logCount := map[string]int{}
	for _, r := range decodeLog(t, &logBuf) {
		if r.Event != qlog.EventQuery || r.Outcome != qlog.OutcomeOK {
			continue
		}
		logCount[r.Class]++
		logMs[cell{r.Class, "queue_wait"}] += r.Phases.QueueWaitMs
		logMs[cell{r.Class, "admission"}] += r.Phases.AdmissionMs
		logMs[cell{r.Class, "parse"}] += r.Phases.ParseMs
		logMs[cell{r.Class, "plan"}] += r.Phases.PlanMs
		logMs[cell{r.Class, "exec"}] += r.Phases.ExecMs
		logMs[cell{r.Class, "serialize"}] += r.Phases.SerializeMs
	}
	if logCount["simple"] != 2 || logCount["intermediate"] != 1 || logCount["complex"] != 1 {
		t.Fatalf("unexpected ok-record counts: %v", logCount)
	}

	// Ledger B: the prof accountant. Every (class, phase) cell the log
	// carries must exist with a matching wall sum.
	profMs := map[cell]float64{}
	profCount := map[cell]uint64{}
	for _, st := range acct.Snapshot() {
		profMs[cell{st.Class, st.Phase}] = st.WallSeconds * 1000
		profCount[cell{st.Class, st.Phase}] = st.Count
	}

	phases := []string{"queue_wait", "admission", "parse", "plan", "exec", "serialize"}
	for class, n := range logCount {
		// Stated tolerance: qlog.Ms rounds each record to the
		// microsecond, so each of n records contributes ≤0.5µs = 0.0005ms
		// of rounding slack per phase.
		tol := 0.0005 * float64(n)
		for _, phase := range phases {
			k := cell{class, phase}
			got, ok := profMs[k]
			if !ok {
				t.Fatalf("prof ledger missing cell %s/%s", class, phase)
			}
			if d := math.Abs(got - logMs[k]); d > tol {
				t.Errorf("%s/%s: prof %.6fms vs qlog %.6fms (|Δ|=%.6f > %.6f)",
					class, phase, got, logMs[k], d, tol)
			}
			if phase != "queue_wait" && profCount[k] != uint64(n) {
				t.Errorf("%s/%s: prof count %d, want %d", class, phase, profCount[k], n)
			}
		}
	}
	reconcile(t, s)
}

// TestProfAccountsExplainRequests: an Explain submission bills its
// parse/plan/exec phases to the accountant exactly like a plain query —
// the exec cell covers the audited execution plus the report build.
func TestProfAccountsExplainRequests(t *testing.T) {
	eng := newServeTestEngine(t)
	var logBuf bytes.Buffer
	acct := prof.NewAccountant()
	s, err := New(eng, Config{Log: qlog.New(&logBuf), Prof: acct, SlowQuery: -1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Do(context.Background(), Request{
		SQL:       "SELECT k, SUM(v) AS s FROM t GROUP BY k",
		Class:     workload.Simple,
		Explain:   true,
		RequestID: "prof-explain-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Report == nil {
		t.Fatal("explain request must return a report")
	}
	recs := decodeLog(t, &logBuf)
	if len(recs) != 1 {
		t.Fatalf("want 1 record, got %d", len(recs))
	}
	ph := recs[0].Phases
	for _, st := range acct.Snapshot() {
		if st.Class != "simple" {
			t.Fatalf("unexpected class %q in accountant", st.Class)
		}
		var want float64
		switch st.Phase {
		case "parse":
			want = ph.ParseMs
		case "plan":
			want = ph.PlanMs
		case "exec":
			want = ph.ExecMs
		case "queue_wait":
			want = ph.QueueWaitMs
		case "admission":
			want = ph.AdmissionMs
		default:
			continue
		}
		if d := math.Abs(st.WallSeconds*1000 - want); d > 0.0005 {
			t.Errorf("explain %s: prof %.6fms vs qlog %.6fms", st.Phase, st.WallSeconds*1000, want)
		}
	}
}
