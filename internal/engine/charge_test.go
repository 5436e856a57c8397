package engine

import (
	"math"
	"slices"
	"strings"
	"testing"

	"blugpu/internal/fault"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

// chargeRun is one traced run of a statement: its group-by row, the
// group-by's eval spans in order, the fused-chain span and the monitor's
// evaluator records.
type chargeRun struct {
	gb    OpStat
	evals []trace.Span
	fused *trace.Span
	mon   map[string]bool
}

func (r chargeRun) evalNames() []string {
	var names []string
	for _, sp := range r.evals {
		names = append(names, sp.Name)
	}
	return names
}

func runCharged(t *testing.T, e *Engine, sql string) chargeRun {
	t.Helper()
	tr := trace.New()
	e.SetTracer(tr)
	defer e.SetTracer(nil)
	res, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	var run chargeRun
	for _, op := range res.Ops {
		if op.Op == "groupby" {
			run.gb = op
		}
	}
	for _, sp := range tr.QuerySpans(res.TraceSeq) {
		switch {
		case sp.Cat == "eval" && sp.Parent == run.gb.Span:
			run.evals = append(run.evals, sp)
		case sp.Cat == "gpu" && sp.Name == "fused-chain":
			run.fused = &sp
		}
	}
	run.mon = map[string]bool{}
	for _, ev := range e.Monitor().Evaluators() {
		run.mon[ev.Name] = true
	}
	return run
}

// TestFusedGroupByChargesNoHostLoad: a fused group-by is charged its key
// evaluators and its device chain, never LCOV or MEMCPY — fused_pack
// loads and packs the payloads on the device. The statement under
// NoFusion takes the staged path and keeps both, its group-by row bit for
// bit as when every group-by was charged its whole chain up front. A
// declined fused chain is charged both before the staged path runs; one
// that faults to the CPU path is charged LCOV, which that path reads, and
// not MEMCPY.
func TestFusedGroupByChargesNoHostLoad(t *testing.T) {
	const sql = "SELECT s_month, SUM(s_qty) AS t, AVG(s_price) AS ap FROM sales GROUP BY s_month"
	keys := []string{"LCOG", "CCAT", "HASH"}

	fused := runCharged(t, newTestEngine(t, 120_000), sql)
	if !strings.HasPrefix(fused.gb.Detail, "gpu/fused/") || fused.fused == nil {
		t.Fatalf("group-by took %q, want the fused chain", fused.gb.Detail)
	}
	if got := fused.evalNames(); !slices.Equal(got, keys) {
		t.Errorf("fused eval spans %v, want %v", got, keys)
	}
	if fused.mon["LCOV"] || fused.mon["MEMCPY"] {
		t.Errorf("fused group-by recorded host loads with the monitor: %v", fused.mon)
	}
	// keys + fused chain (fills past the key window, stage kernels and the
	// group-by kernels: the fused-chain span) + finalize, 12 groups by two
	// aggregates.
	m := vtime.Default()
	want := m.CPUTime(12*2, m.CPUExprRate, 24) + fused.fused.End.Sub(fused.fused.Start)
	for _, sp := range fused.evals {
		if slices.Contains(keys, sp.Name) {
			want += sp.End.Sub(sp.Start)
		}
	}
	if d := math.Abs(float64(fused.gb.Modeled - want)); d > 1e-9*float64(want) {
		t.Errorf("fused group-by charged %v, want keys + chain + finalize = %v", fused.gb.Modeled, want)
	}

	staged := runCharged(t, newTestEngineWith(t, Config{Devices: 2, Degree: 24, NoFusion: true}, 120_000), sql)
	if got, want := staged.evalNames(), []string{"LCOG", "CCAT", "LCOV", "HASH", "MEMCPY"}; !slices.Equal(got, want) {
		t.Errorf("NoFusion eval spans %v, want %v", got, want)
	}
	// The staged group-by's row, bit for bit as when the whole chain was
	// charged before the decision.
	gb := staged.gb
	if gb.Detail != "gpu/k2-shared" || math.Float64bits(float64(gb.Modeled)) != stagedGroupByModeled ||
		math.Float64bits(float64(gb.Start)) != stagedGroupByStart || math.Float64bits(float64(gb.End)) != stagedGroupByEnd {
		t.Errorf("NoFusion group-by row %q modeled %x start %x end %x moved", gb.Detail,
			math.Float64bits(float64(gb.Modeled)), math.Float64bits(float64(gb.Start)), math.Float64bits(float64(gb.End)))
	}

	// rolap-q36, first on a fresh engine, declines its fused chain (cold
	// cache): the staged path runs, charged LCOV and MEMCPY after the
	// attempt.
	var q36 string
	for _, q := range workload.CognosROLAP() {
		if q.ID == "rolap-q36" {
			q36 = q.SQL
		}
	}
	declined := runCharged(t, newWorkloadEngine(t, 0.02), q36)
	if !strings.HasPrefix(declined.gb.Detail, "gpu/k") || declined.fused == nil {
		t.Fatalf("rolap-q36 took %q, want a declined fused chain and the staged path", declined.gb.Detail)
	}
	if got, want := declined.evalNames(), append(keys, "LCOV", "MEMCPY"); !slices.Equal(got, want) {
		t.Errorf("declined eval spans %v, want %v", got, want)
	}

	// Every kernel faults: the fused chain spills at its first stage and
	// the query resumes on the CPU path.
	inj := fault.New(fault.Config{Seed: 20160626, Kernel: 1})
	faulted := runCharged(t, newTestEngineWith(t, Config{Devices: 2, Degree: 24, Faults: inj}, 120_000), sql)
	if !strings.HasPrefix(faulted.gb.Detail, "cpu") || faulted.gb.Agg.FallbackCause == "" {
		t.Fatalf("faulted group-by took %q (cause %q), want the CPU fallback", faulted.gb.Detail, faulted.gb.Agg.FallbackCause)
	}
	if got, want := faulted.evalNames(), append(keys, "LCOV"); !slices.Equal(got, want) {
		t.Errorf("faulted eval spans %v, want %v", got, want)
	}
	if !faulted.mon["LCOV"] || faulted.mon["MEMCPY"] {
		t.Errorf("faulted group-by's monitor evaluators %v, want LCOV and no MEMCPY", faulted.mon)
	}
}

// The NoFusion group-by row of TestFusedGroupByChargesNoHostLoad's
// statement, as float bits: modeled self time, start and end.
const (
	stagedGroupByModeled = 0x3f3d1e4d9acdec2a
	stagedGroupByStart   = 0x3ef7d4ce4a19b16e
	stagedGroupByEnd     = 0x3f3e9b9a7f6f8741
)
