package monitor

import (
	"strings"
	"testing"

	"blugpu/internal/vtime"
)

func TestHistQuantiles(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report 0")
	}
	// 90 fast samples, 10 slow ones: p50 must land near the fast
	// cluster, p99 near the slow one (bucket resolution is 2x).
	for i := 0; i < 90; i++ {
		h.Observe(10 * vtime.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * vtime.Millisecond)
	}
	p50, p95, p99 := h.Quantiles()
	if p50 < 5*vtime.Microsecond || p50 > 20*vtime.Microsecond {
		t.Errorf("p50 = %s, want ~10µs", p50)
	}
	if p95 < 5*vtime.Millisecond || p95 > 10*vtime.Millisecond {
		t.Errorf("p95 = %s, want ~10ms", p95)
	}
	if p99 < p95 {
		t.Errorf("p99 %s < p95 %s", p99, p95)
	}
	if h.Count() != 100 || h.Max() != 10*vtime.Millisecond {
		t.Errorf("count=%d max=%s", h.Count(), h.Max())
	}
	// Quantiles never exceed the observed maximum.
	if h.Quantile(1) > h.Max() {
		t.Errorf("p100 %s > max %s", h.Quantile(1), h.Max())
	}
}

func TestHistExtremes(t *testing.T) {
	var h Hist
	h.Observe(0)
	h.Observe(vtime.Duration(1e30))
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0.99); q > h.Max() {
		t.Errorf("quantile %s exceeds max", q)
	}
}

func TestQueryRollups(t *testing.T) {
	m := New()
	m.RecordQuery("Q1", 10*vtime.Millisecond, true)
	m.RecordQuery("Q1", 30*vtime.Millisecond, false)
	m.RecordQuery("Q2", vtime.Second, true)
	qs := m.Queries()
	if len(qs) != 2 || qs[0].Name != "Q1" || qs[1].Name != "Q2" {
		t.Fatalf("queries = %+v", qs)
	}
	if qs[0].Count != 2 || qs[0].GPURuns != 1 || qs[0].Total != 40*vtime.Millisecond {
		t.Errorf("Q1 rollup = %+v", qs[0])
	}
	if qs[0].P50 <= 0 || qs[0].P99 < qs[0].P50 {
		t.Errorf("Q1 quantiles = %+v", qs[0])
	}
}

func TestReportThroughputAndDegraded(t *testing.T) {
	m := New()
	var sb strings.Builder
	m.Report(&sb)
	out := sb.String()
	// Degraded-op counts appear in the main table even when all-zero
	// (no separate robustness section in that case).
	if !strings.Contains(out, "degraded ops: retries=0 cpu-fallbacks=0 faults=0 breaker-trips=0") {
		t.Errorf("report missing zero degraded-op line:\n%s", out)
	}
	if strings.Contains(out, "robustness:") {
		t.Errorf("empty report should not print the robustness detail section:\n%s", out)
	}
	// Transfer throughput prints alongside raw totals.
	if !strings.Contains(out, "MB/s") {
		t.Errorf("report missing transfer throughput:\n%s", out)
	}
}
