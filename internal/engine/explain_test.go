package engine

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"blugpu/internal/explain"
	"blugpu/internal/optimizer"
)

var update = flag.Bool("update", false, "rewrite golden files")

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run `go test ./internal/engine -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (run -update after reviewing)\n--- got ---\n%s", name, got)
	}
}

// TestExplainPlanGolden byte-locks the static EXPLAIN output (plan tree
// plus the optimizer's group-by prognosis) so the rendering cannot
// drift silently.
func TestExplainPlanGolden(t *testing.T) {
	e := newTestEngine(t, 120_000)
	out, err := e.Explain("SELECT s_month, SUM(s_qty) AS t FROM sales GROUP BY s_month ORDER BY t DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "explain_plan.golden", []byte(out))
}

// TestExplainAnalyzeGolden byte-locks the EXPLAIN ANALYZE text and JSON
// renders of a fixed GPU-eligible query. The report contains only
// quantized virtual-time values and deterministically ordered counters,
// so repeated runs — and reviewed golden updates — are byte-identical.
func TestExplainAnalyzeGolden(t *testing.T) {
	e := newTestEngine(t, 120_000)
	const sql = "SELECT s_store_sk, SUM(s_qty) AS t, AVG(s_price) AS ap FROM sales GROUP BY s_store_sk ORDER BY t DESC LIMIT 5"
	// Warmup settles allocator fragmentation history (MaxFreeSpans) and
	// the per-device fusion column cache so the locked run sees steady
	// state: two runs warm both devices (placement alternates while the
	// caches are lopsided), after which every run is a full cache hit on
	// the same device.
	for i := 0; i < 2; i++ {
		if _, _, err := e.ExplainAnalyzeNamedCtx(context.Background(), "", sql); err != nil {
			t.Fatal(err)
		}
	}
	rep, _, err := e.ExplainAnalyzeNamedCtx(context.Background(), "qa", sql)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reconciled() {
		t.Fatalf("golden query must reconcile: unattributed=%d orphans=%d mismatches=%v",
			rep.Unattributed, rep.Orphans, rep.Totals.Mismatches)
	}
	golden(t, "explain_analyze.golden", []byte(rep.Text()))
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := explain.ValidateReport(js); err != nil {
		t.Fatalf("golden JSON must validate: %v", err)
	}
	golden(t, "explain_analyze.json.golden", js)

	// And the render must be reproducible live, not just against the
	// committed file: a third run renders byte-identically.
	rep2, _, err := e.ExplainAnalyzeNamedCtx(context.Background(), "qa", sql)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Text() != rep.Text() {
		t.Error("text render differs between consecutive runs")
	}
	js2, _ := rep2.JSON()
	if !bytes.Equal(js, js2) {
		t.Error("JSON render differs between consecutive runs")
	}
}

// TestExplainAnalyzeReconciliation is the acceptance check: per-operator
// virtual time telescopes exactly across the query, and the span-tree
// evidence sums to the monitor's counter deltas.
func TestExplainAnalyzeReconciliation(t *testing.T) {
	e := newTestEngine(t, 120_000)
	const sql = "SELECT s_month, SUM(s_qty) AS t, COUNT(*) AS c FROM sales WHERE s_qty > 1 GROUP BY s_month ORDER BY t DESC"
	rep, res, err := e.ExplainAnalyzeNamedCtx(context.Background(), "recon", sql)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reconciled() {
		t.Fatalf("not reconciled: unattributed=%d orphans=%d mismatches=%v",
			rep.Unattributed, rep.Orphans, rep.Totals.Mismatches)
	}
	if res.Table.Rows() != rep.Rows {
		t.Errorf("report rows %d != result rows %d", rep.Rows, res.Table.Rows())
	}

	// Per-operator span tallies must sum exactly to the query totals.
	var kernels, transfers, fallbacks, retries int
	var bytesSum int64
	for _, op := range rep.Ops {
		kernels += op.Kernels
		transfers += op.Transfers
		bytesSum += op.TransferBytes
		fallbacks += op.Fallbacks
		retries += op.Retries
	}
	if uint64(kernels) != rep.Totals.Kernels || kernels != rep.Totals.KernelSpans {
		t.Errorf("kernel sum %d != totals %d/%d", kernels, rep.Totals.Kernels, rep.Totals.KernelSpans)
	}
	if uint64(transfers) != rep.Totals.Transfers || bytesSum != rep.Totals.TransferBytes {
		t.Errorf("transfer sum %d (%d B) != totals %d (%d B)",
			transfers, bytesSum, rep.Totals.Transfers, rep.Totals.TransferBytes)
	}
	if uint64(fallbacks) != rep.Totals.Fallbacks || uint64(retries) != rep.Totals.Retries {
		t.Errorf("degradation sums retry=%d fallback=%d != totals retry=%d fallback=%d",
			retries, fallbacks, rep.Totals.Retries, rep.Totals.Fallbacks)
	}

	// The group-by audit must hold the estimate-accountability numbers.
	var gb *explain.GroupbyReport
	for _, op := range rep.Ops {
		if op.Groupby != nil {
			gb = op.Groupby
		}
	}
	if gb == nil {
		t.Fatal("no group-by audit in report")
	}
	if gb.EstGroups <= 0 || gb.ActualGroups != 12 {
		t.Errorf("estimate accountability: kmv~%d actual=%d", gb.EstGroups, gb.ActualGroups)
	}
	if gb.Plan == nil {
		t.Error("group-by audit missing plan-time prognosis")
	}
	if gb.Decision == "" || gb.Reason == "" || gb.Path == "" {
		t.Errorf("group-by audit incomplete: %+v", gb)
	}

	// Modeled time telescopes: operator self times sum to the query's
	// modeled duration (vtime includes retry backoff; with no faults the
	// two agree), up to the rendering quantum per operator.
	var selfSum float64
	for _, op := range rep.Ops {
		selfSum += op.SelfMs
	}
	if diff := selfSum - rep.ModeledMs; diff > 1e-6*float64(len(rep.Ops)) || diff < -1e-6*float64(len(rep.Ops)) {
		t.Errorf("self-time sum %.9f ms != modeled %.9f ms", selfSum, rep.ModeledMs)
	}

	// KMV accountability must have reached the monitor histogram.
	if k := e.Monitor().KMVError(); k.Count == 0 {
		t.Error("KMV relative error not recorded in monitor")
	}
	if len(e.Monitor().Decisions()) == 0 {
		t.Error("optimizer decision not recorded in monitor")
	}
}

// TestExplainAnalyzeFallbackAudit forces a CPU fallback (no devices)
// and checks the audit reports the degradation honestly.
func TestExplainAnalyzeCPUPath(t *testing.T) {
	e := newTestEngine(t, 120_000)
	e.SetGPUEnabled(false)
	rep, _, err := e.ExplainAnalyzeNamedCtx(context.Background(), "cpu-path", "SELECT s_month, SUM(s_qty) AS t FROM sales GROUP BY s_month")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reconciled() {
		t.Fatalf("CPU-only run must reconcile: %v", rep.Totals.Mismatches)
	}
	if rep.GPUEnabled {
		t.Error("report must show gpu off")
	}
	var gb *explain.GroupbyReport
	for _, op := range rep.Ops {
		if op.Groupby != nil {
			gb = op.Groupby
		}
	}
	if gb == nil || gb.Decision != "cpu" || gb.Reason != "no-device" {
		t.Fatalf("CPU-only group-by must decide cpu (no-device): %+v", gb)
	}
	// The prognosis sees the same fleet state, so plan and runtime agree.
	if gb.Plan == nil || !gb.Plan.Agrees {
		t.Errorf("plan and runtime both see no devices and must agree, got %+v", gb.Plan)
	}
	if rep.Totals.Kernels != 0 || rep.Memory.DeviceHighWaterBytes != 0 {
		t.Error("CPU-only run must show zero device work")
	}
}

// TestExplainAnalyzeErrors covers parse and plan failures.
func TestExplainAnalyzeErrors(t *testing.T) {
	e := newTestEngine(t, 100)
	if _, _, err := e.ExplainAnalyzeNamedCtx(context.Background(), "", "NOT SQL"); err == nil {
		t.Error("parse error must surface")
	}
	if _, _, err := e.ExplainAnalyzeNamedCtx(context.Background(), "x", "SELECT nope FROM sales GROUP BY"); err == nil {
		t.Error("plan error must surface")
	}
	if _, _, err := e.ExplainAnalyzeNamedCtx(context.Background(), "", "SELECT missing_col FROM sales"); err == nil {
		t.Error("execution error must surface")
	}
	// After an error with no tracer pre-attached, the temporary tracer
	// must have been detached again.
	if e.Tracer() != nil {
		t.Error("temporary tracer leaked after error")
	}
}

// TestExplainAnalyzeSortAudit checks the job-queue breakdown reaches
// the report and matches the span-side job count.
func TestExplainAnalyzeSortAudit(t *testing.T) {
	e := newTestEngine(t, 120_000)
	rep, _, err := e.ExplainAnalyzeNamedCtx(context.Background(), "sorted", "SELECT s_store_sk, s_price FROM sales ORDER BY s_price DESC LIMIT 20")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reconciled() {
		t.Fatalf("sort query must reconcile: %v", rep.Totals.Mismatches)
	}
	var srt *explain.SortReport
	for _, op := range rep.Ops {
		if op.Sort != nil {
			srt = op.Sort
		}
	}
	if srt == nil {
		t.Fatal("no sort audit in report")
	}
	// Every job drains on exactly one path; requeued duplicate ranges
	// re-enter the queue and are counted again when they drain.
	if srt.Jobs == 0 || srt.Jobs != srt.GPUJobs+srt.CPUJobs {
		t.Errorf("job accounting: %+v", srt)
	}
	if srt.JobSpans != srt.Jobs {
		t.Errorf("span-side job count %d != engine-side %d", srt.JobSpans, srt.Jobs)
	}
}

// TestPrognosisPopOrder: the query context queues plan-time prognoses in
// plan order (root first) and execution is bottom-up, so the deepest
// aggregate pops first and must get the plan-order *last* prognosis; a
// query without a queue gets none.
func TestPrognosisPopOrder(t *testing.T) {
	queue := []optimizer.Prognosis{
		optimizer.Prognose([]string{"a"}, optimizer.Estimate{Rows: 100}, optimizer.DefaultThresholds(), 0),
		optimizer.Prognose([]string{"b"}, optimizer.Estimate{Rows: 200}, optimizer.DefaultThresholds(), 0),
	}
	q := qctx{prognoses: &queue}.deeper() // copies share the queue
	if got := q.nextPrognosis(); got == nil || got.Keys[0] != "b" {
		t.Fatalf("first pop = %+v, want keys [b]", got)
	}
	if got := q.nextPrognosis(); got == nil || got.Keys[0] != "a" {
		t.Fatalf("second pop = %+v, want keys [a]", got)
	}
	if got := q.nextPrognosis(); got != nil {
		t.Fatalf("empty queue pop = %+v, want nil", got)
	}
	if got := (qctx{}).nextPrognosis(); got != nil {
		t.Fatalf("pop without a queue = %+v, want nil", got)
	}
}
