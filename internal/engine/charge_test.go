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
// group-by's eval spans in order, the fused-chain span, the fused_pack
// kernel spans, the time of every span the group-by's row parents and the
// monitor's evaluator records.
type chargeRun struct {
	gb       OpStat
	evals    []trace.Span
	fused    *trace.Span
	packs    []trace.Span
	children vtime.Duration
	mon      map[string]bool
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
		if sp.Parent == run.gb.Span {
			run.children += sp.End.Sub(sp.Start)
		}
		switch {
		case sp.Cat == "eval" && sp.Parent == run.gb.Span:
			run.evals = append(run.evals, sp)
		case sp.Cat == "gpu" && sp.Name == "fused-chain":
			run.fused = &sp
		case sp.Name == "fused_pack":
			run.packs = append(run.packs, sp)
		}
	}
	run.mon = map[string]bool{}
	for _, ev := range e.Monitor().Evaluators() {
		run.mon[ev.Name] = true
	}
	return run
}

// TestFusedGroupByChargesNoHostLoad: a fused group-by is charged its
// device chain and never LCOV or MEMCPY — fused_pack loads and packs the
// payloads on the device — and its key evaluators go where its entry's
// columns are. One arm a path:
//
//   - resident: the entry is resident on the device the chain prefers, so
//     fused_pack builds the keys too and no LCOG, CCAT or HASH is charged;
//   - fill: the entry must fill, and the host key evaluators are charged
//     as the fill's overlap window;
//   - declined and faulted, from a resident entry and from one that fills:
//     the keys are charged exactly once before the staged or CPU path runs,
//     with LCOV and MEMCPY for the staged path and LCOV for the CPU one;
//   - NoFusion takes the staged path and keeps its whole chain, its
//     group-by row bit for bit as when every group-by was charged its
//     whole chain up front.
//
// In every arm the row's self time is what its spans hold plus the
// finalize: keys + chain + finalize.
func TestFusedGroupByChargesNoHostLoad(t *testing.T) {
	const sql = "SELECT s_month, SUM(s_qty) AS t, AVG(s_price) AS ap FROM sales GROUP BY s_month"
	keys := []string{"LCOG", "CCAT", "HASH"}
	m := vtime.Default()
	// 12 groups by two aggregates.
	finalize := m.CPUTime(12*2, m.CPUExprRate, 24)
	sums := func(t *testing.T, r chargeRun) {
		t.Helper()
		if want := r.children + finalize; math.Abs(float64(r.gb.Modeled-want)) > 1e-9*float64(want) {
			t.Errorf("group-by charged %v, want keys + chain + finalize = %v", r.gb.Modeled, want)
		}
	}
	evals := func(t *testing.T, r chargeRun, want ...string) {
		t.Helper()
		if got := r.evalNames(); !slices.Equal(got, want) {
			t.Errorf("eval spans %v, want %v", got, want)
		}
	}
	// keysAfter: a chain that left a resident entry is charged its keys
	// once it has left, after the fused-chain attempt.
	keysAfter := func(t *testing.T, r chargeRun) {
		t.Helper()
		if r.fused == nil || len(r.evals) == 0 || r.evals[0].Start.Before(r.fused.End) {
			t.Errorf("keys not charged after the fused-chain attempt: evals %v", r.evalNames())
		}
	}

	var fill, resident chargeRun
	t.Run("fill", func(t *testing.T) {
		e := newTestEngine(t, 120_000)
		fill = runCharged(t, e, sql)
		if !strings.HasPrefix(fill.gb.Detail, "gpu/fused/") || fill.fused == nil || fill.gb.Agg.DeviceKeys {
			t.Fatalf("group-by took %q (device keys %t), want the fused chain with host keys", fill.gb.Detail, fill.gb.Agg.DeviceKeys)
		}
		evals(t, fill, keys...)
		if fill.mon["LCOV"] || fill.mon["MEMCPY"] {
			t.Errorf("fused group-by recorded host loads with the monitor: %v", fill.mon)
		}
		// The key evaluators come first: their window is what the fills
		// overlap.
		if fill.evals[2].End != fill.fused.Start {
			t.Errorf("keys end at %v, chain starts at %v", fill.evals[2].End, fill.fused.Start)
		}
		sums(t, fill)

		resident = runCharged(t, e, sql)
		if !strings.HasPrefix(resident.gb.Detail, "gpu/fused/") || resident.fused == nil || !resident.gb.Agg.DeviceKeys {
			t.Fatalf("warm group-by took %q (device keys %t), want the fused chain with device keys", resident.gb.Detail, resident.gb.Agg.DeviceKeys)
		}
	})
	t.Run("resident", func(t *testing.T) {
		if resident.fused == nil {
			t.Skip("fill arm failed")
		}
		evals(t, resident)
		// fused_pack also reads the key column and hashes the row: two
		// more values a row at the device's scan rate.
		if len(fill.packs) != 1 || len(resident.packs) != 1 {
			t.Fatalf("fused_pack spans: fill %d, resident %d", len(fill.packs), len(resident.packs))
		}
		d := func(sp trace.Span) vtime.Duration { return sp.End.Sub(sp.Start) }
		extra := d(resident.packs[0]) - d(fill.packs[0])
		if want := vtime.Duration(120_000 * 2 / m.GPUScanRate); math.Abs(float64(extra-want)) > 1e-9*float64(want) {
			t.Errorf("fused_pack grew by %v for the keys, want %v", extra, want)
		}
		sums(t, resident)
	})

	t.Run("declined", func(t *testing.T) {
		// From a resident entry: with every device's memory held, the chain
		// and then the staged path find no room, and the CPU runs it.
		e := newTestEngine(t, 120_000)
		runCharged(t, e, sql)
		for _, d := range e.sched.Devices() {
			res, err := d.Reserve(d.FreeMemory())
			if err != nil {
				t.Fatal(err)
			}
			defer res.Release()
		}
		held := runCharged(t, e, sql)
		if held.gb.Agg.Fused || held.gb.Agg.FallbackCause == "" {
			t.Fatalf("group-by took %q (cause %q), want a declined chain and the CPU fallback", held.gb.Detail, held.gb.Agg.FallbackCause)
		}
		evals(t, held, append(keys, "LCOV", "MEMCPY")...)
		keysAfter(t, held)
		sums(t, held)

		// From an entry that fills: rolap-q36, first on a fresh engine,
		// declines its fused chain (cold cache), and the staged path runs.
		var q36 string
		for _, q := range workload.CognosROLAP() {
			if q.ID == "rolap-q36" {
				q36 = q.SQL
			}
		}
		cold := runCharged(t, newWorkloadEngine(t, 0.02), q36)
		if !strings.HasPrefix(cold.gb.Detail, "gpu/k") || cold.fused == nil {
			t.Fatalf("rolap-q36 took %q, want a declined fused chain and the staged path", cold.gb.Detail)
		}
		evals(t, cold, append(keys, "LCOV", "MEMCPY")...)
	})

	t.Run("faulted", func(t *testing.T) {
		// Every kernel faults: the fused chain spills at its first stage
		// and the query resumes on the CPU path, which reads LCOV.
		inj := fault.New(fault.Config{Seed: 20160626, Kernel: 1})
		filled := runCharged(t, newTestEngineWith(t, Config{Devices: 2, Degree: 24, Faults: inj}, 120_000), sql)
		if !strings.HasPrefix(filled.gb.Detail, "cpu") || filled.gb.Agg.FallbackCause == "" {
			t.Fatalf("faulted group-by took %q (cause %q), want the CPU fallback", filled.gb.Detail, filled.gb.Agg.FallbackCause)
		}
		evals(t, filled, append(keys, "LCOV")...)
		if !filled.mon["LCOV"] || filled.mon["MEMCPY"] {
			t.Errorf("faulted group-by's monitor evaluators %v, want LCOV and no MEMCPY", filled.mon)
		}
		sums(t, filled)

		// From a resident entry: both devices die after the first run.
		inj = fault.New(fault.Config{Seed: 20160626})
		e := newTestEngineWith(t, Config{Devices: 2, Degree: 24, Faults: inj}, 120_000)
		runCharged(t, e, sql)
		inj.KillDevice(0)
		inj.KillDevice(1)
		dead := runCharged(t, e, sql)
		if !strings.HasPrefix(dead.gb.Detail, "cpu") || !strings.Contains(dead.gb.Agg.FallbackCause, "injected") {
			t.Fatalf("group-by on dead devices took %q (cause %q), want the CPU fallback", dead.gb.Detail, dead.gb.Agg.FallbackCause)
		}
		evals(t, dead, append(keys, "LCOV")...)
		keysAfter(t, dead)
		sums(t, dead)
	})

	t.Run("nofusion", func(t *testing.T) {
		staged := runCharged(t, newTestEngineWith(t, Config{Devices: 2, Degree: 24, NoFusion: true}, 120_000), sql)
		evals(t, staged, "LCOG", "CCAT", "LCOV", "HASH", "MEMCPY")
		// The staged group-by's row, bit for bit as when the whole chain was
		// charged before the decision.
		gb := staged.gb
		if gb.Detail != "gpu/k2-shared" || math.Float64bits(float64(gb.Modeled)) != stagedGroupByModeled ||
			math.Float64bits(float64(gb.Start)) != stagedGroupByStart || math.Float64bits(float64(gb.End)) != stagedGroupByEnd {
			t.Errorf("NoFusion group-by row %q modeled %x start %x end %x moved", gb.Detail,
				math.Float64bits(float64(gb.Modeled)), math.Float64bits(float64(gb.Start)), math.Float64bits(float64(gb.End)))
		}
		sums(t, staged)
	})
}

// The NoFusion group-by row of TestFusedGroupByChargesNoHostLoad's
// statement, as float bits: modeled self time, start and end.
const (
	stagedGroupByModeled = 0x3f3d1e4d9acdec2a
	stagedGroupByStart   = 0x3ef7d4ce4a19b16e
	stagedGroupByEnd     = 0x3f3e9b9a7f6f8741
)
