package engine

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/explain"
	"blugpu/internal/fault"
	"blugpu/internal/optimizer"
	"blugpu/internal/workload"
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

// TestExplainPushdownGolden byte-locks where each WHERE conjunct of a
// two-join statement runs: the fact conjunct in a filter over the scan,
// the dimension conjunct as its join's predicate (EXPLAIN ANALYZE names
// the dimension rows it kept), the cross-table OR in a filter above the
// joins — in the static plan and in the audited run.
func TestExplainPushdownGolden(t *testing.T) {
	e := newTestEngine(t, 120_000)
	mk := columnar.NewInt64Builder("m_month")
	quarter := columnar.NewInt64Builder("m_quarter")
	for m := 1; m <= 12; m++ {
		mk.Append(int64(m))
		quarter.Append(int64((m-1)/3 + 1))
	}
	if err := e.Register(columnar.MustNewTable("months", mk.Build(), quarter.Build())); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT st_region, m_quarter, SUM(s_qty) AS q FROM sales " +
		"JOIN stores ON s_store_sk = st_store_sk JOIN months ON s_month = m_month " +
		"WHERE s_qty > 2 AND m_quarter <> 4 AND (st_region = 'east' OR s_price > 90.0) " +
		"GROUP BY st_region, m_quarter ORDER BY q DESC"
	plan, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the allocator history and the column cache as the analyze
	// golden does, so the locked run sees steady state.
	for i := 0; i < 2; i++ {
		if _, _, err := e.ExplainAnalyzeNamedCtx(context.Background(), "", sql); err != nil {
			t.Fatal(err)
		}
	}
	rep, _, err := e.ExplainAnalyzeNamedCtx(context.Background(), "pushdown", sql)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reconciled() {
		t.Fatalf("pushdown query must reconcile: unattributed=%d orphans=%d mismatches=%v",
			rep.Unattributed, rep.Orphans, rep.Totals.Mismatches)
	}
	golden(t, "explain_pushdown.golden", []byte(plan+"\n"+rep.Text()))
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

	// The star join of TestStarJoinCopiesOnce: its copies are charged where
	// they happen — the joins their lists, the fused entry, a derive and
	// the result the columns they copy — and still telescope.
	star := starEngine(t, 120_000)
	for _, sql := range []string{
		"SELECT st_region, q_name, SUM(s_qty) AS q " + starFrom + "GROUP BY st_region, q_name",
		"SELECT q_name, SUM(s_qty * s_price) AS rev " + starFrom + "GROUP BY q_name ORDER BY rev DESC",
		"SELECT st_name, m_name, s_qty " + starFrom + "ORDER BY s_qty DESC, st_name LIMIT 10",
	} {
		assertTelescopes(t, star, sql, "")
	}
	// A fused group-by is charged its key evaluators before the decision
	// and loads its payloads on the device. rolap-q36, the first statement
	// on a fresh engine, declines its fused chain (cold cache) and is
	// charged LCOV and MEMCPY after the attempt, before the staged path;
	// its 268 640 groups then sort partly on the device, over NULL-free
	// keys. Both still telescope.
	assertTelescopes(t, newTestEngine(t, 120_000),
		"SELECT s_month, SUM(s_qty) AS t, AVG(s_price) AS ap FROM sales GROUP BY s_month", "gpu/fused/")
	rolap := newWorkloadEngine(t, 0.1)
	for _, q := range workload.CognosROLAP() {
		if q.ID == "rolap-q36" {
			assertTelescopes(t, rolap, q.SQL, "gpu/k")
		}
	}
	// Under faults, with every grouped statement and most sorts sent to
	// the device, operations retry on the other device and fall back to
	// the host; each retry's modeled backoff is part of its operator's
	// self time, fused and staged.
	th := optimizer.DefaultThresholds()
	th.T1Rows = 1
	ds := workload.Generate(0.02, 20160626)
	for _, noFusion := range []bool{false, true} {
		faulted, err := New(Config{
			Devices: 2, NoFusion: noFusion, Thresholds: th, GPUSortThreshold: 256,
			Faults: fault.New(fault.Config{Seed: 20160626, Kernel: 0.3, H2D: 0.2}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.RegisterAll(faulted); err != nil {
			t.Fatal(err)
		}
		for _, q := range workloadQueries() {
			assertTelescopes(t, faulted, q.SQL, "")
		}
	}
}

// newWorkloadEngine is the benchmark's engine (2 devices, degree 24) over
// the workload dataset at scale factor sf.
func newWorkloadEngine(t *testing.T, sf float64) *Engine {
	t.Helper()
	e, err := New(Config{Devices: 2, Degree: 24})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Generate(sf, 20160626).RegisterAll(e); err != nil {
		t.Fatal(err)
	}
	return e
}

// assertTelescopes audits sql on e: the report reconciles, and operator
// self times sum to the query's modeled time up to the rendering quantum
// per operator. A non-empty path is the prefix its group-by's path must
// have.
func assertTelescopes(t *testing.T, e *Engine, sql, path string) {
	t.Helper()
	rep, _, err := e.ExplainAnalyzeNamedCtx(context.Background(), "telescope", sql)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reconciled() {
		t.Fatalf("%s: not reconciled: unattributed=%d orphans=%d mismatches=%v",
			sql, rep.Unattributed, rep.Orphans, rep.Totals.Mismatches)
	}
	var selfSum float64
	for _, op := range rep.Ops {
		selfSum += op.SelfMs
		if op.Groupby != nil && !strings.HasPrefix(op.Groupby.Path, path) {
			t.Errorf("%s: group-by took %q, want %s...", sql, op.Groupby.Path, path)
		}
	}
	if diff := selfSum - rep.ModeledMs; diff > 1e-6*float64(len(rep.Ops)) || diff < -1e-6*float64(len(rep.Ops)) {
		t.Errorf("%s: self-time sum %.9f ms != modeled %.9f ms", sql, selfSum, rep.ModeledMs)
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
