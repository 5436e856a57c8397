package bench

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"blugpu/internal/workload"
)

// smallHarness is fast: tiny facts, most queries below T1.
func smallHarness(t *testing.T) *Harness {
	t.Helper()
	h, err := NewHarness(Config{SF: 0.004, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// shapeHarness is the scale the experiments report at.
func shapeHarness(t *testing.T) *Harness {
	t.Helper()
	h, err := NewHarness(Config{SF: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHarnessDefaults(t *testing.T) {
	h := smallHarness(t)
	if len(h.Data.Tables) != 24 {
		t.Errorf("tables = %d", len(h.Data.Tables))
	}
	if len(h.Eng.Devices()) != 2 {
		t.Errorf("devices = %d", len(h.Eng.Devices()))
	}
}

func TestRunBothConsistency(t *testing.T) {
	h := smallHarness(t)
	q := workload.BDInsights()[0]
	r, err := h.RunBoth(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.GPUOn <= 0 || r.GPUOff <= 0 {
		t.Errorf("times = %v / %v", r.GPUOn, r.GPUOff)
	}
	// The engine must be left GPU-enabled.
	if !h.Eng.GPUEnabled() {
		t.Error("RunBoth must restore GPU-enabled state")
	}
}

func TestTable1Output(t *testing.T) {
	h := smallHarness(t)
	var sb strings.Builder
	if err := h.Table1(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"FFFFFFFFFFFFFFFF", "-9223372036854775808", "9223372036854775807", "16-byte aligned"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestExperimentDispatch(t *testing.T) {
	h := smallHarness(t)
	if err := h.Run("table1", io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := h.Run("nope", io.Discard); err == nil {
		t.Error("unknown experiment should error")
	}
	if len(Experiments()) != 9 {
		t.Errorf("experiments = %v", Experiments())
	}
}

func TestFig5AndFig6Run(t *testing.T) {
	h := smallHarness(t)
	var sb strings.Builder
	if err := h.Fig5(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "TOTAL") {
		t.Error("fig5 missing totals")
	}
	sb.Reset()
	if err := h.Fig6(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "bd-inter-01") {
		t.Error("fig6 missing per-query rows")
	}
}

func TestROLAPMemoryGate(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test needs the full scale factor")
	}
	h := shapeHarness(t)
	mem, runs, err := h.CalibrateROLAPMemory()
	if err != nil {
		t.Fatal(err)
	}
	if mem <= 0 {
		t.Fatal("calibrated memory must be positive")
	}
	if len(runs) != 46 {
		t.Fatalf("runs = %d", len(runs))
	}
	// Exactly 12 demands exceed the calibrated memory.
	over := 0
	for _, r := range runs {
		if r.Demand > mem {
			over++
		}
	}
	if over != 12 {
		t.Errorf("queries over calibrated memory = %d, want 12", over)
	}
	// The over-memory queries should be the flagged heavy ones.
	byDemand := sortedByDemand(runs)
	heavy := 0
	for _, r := range byDemand[:12] {
		if r.Query.MemoryHeavy {
			heavy++
		}
	}
	if heavy < 10 {
		t.Errorf("only %d of the 12 largest demands are flagged MemoryHeavy", heavy)
	}
}

// TestPaperShapes holds the default arm — the paper's data path plus
// this repository's extension, resident columns and intermediates (the
// fused chain and its column cache) — to the extension's claim: it only
// removes transfer and staging work, so on Figures 5, 6 and 8 and Tables
// 2 and 3 it gains at least as much as the paper's configuration
// (NoFusion), whose own bands TestPaperConfigShapes holds. Figure 5's
// complex set must still gain more than Figure 6's intermediate one, and
// simple queries never touch the device.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test needs the full scale factor")
	}
	paper, err := noFusionShapes()
	if err != nil {
		t.Fatal(err)
	}
	s, err := measurePaperShapes(Config{SF: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	atLeast := func(claim string, got, want float64) {
		t.Helper()
		if got < want {
			t.Errorf("%s: default arm %.4f below NoFusion's %.4f", claim, got, want)
		} else {
			t.Logf("%s: default arm %.4f, NoFusion %.4f", claim, got, want)
		}
	}
	atLeast("fig5 complex gain", s.fig5, paper.fig5)
	atLeast("fig6 intermediate gain", s.fig6, paper.fig6)
	atLeast("table2 gain", s.table2, paper.table2)
	for d, degree := range table3Degrees {
		for st := range s.table3 {
			atLeast(fmt.Sprintf("table3 %d stream(s), degree %d", st+1, degree), s.table3[st][d], paper.table3[st][d])
		}
	}
	atLeast("fig8 speedup", s.fig8, paper.fig8)

	// Complex queries must beat intermediate queries on GPU benefit.
	if s.fig5 <= s.fig6 {
		t.Errorf("complex gain (%.1f%%) should exceed intermediate gain (%.1f%%)", s.fig5*100, s.fig6*100)
	}

	// Simple queries never touch the device.
	simple, err := s.h.RunSet(workload.Filter(workload.BDInsights(), workload.Simple)[:10])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range simple {
		if r.GPUUsed {
			t.Errorf("%s: simple query used the GPU", r.Query.ID)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test needs the full scale factor")
	}
	h := shapeHarness(t)
	var sb strings.Builder
	res, offRes, err := h.Fig8(&sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "gpu-heavy") || !strings.Contains(out, "TOTAL") {
		t.Fatalf("fig8 output incomplete:\n%s", out)
	}
	if res.Makespan <= 0 || len(res.Queries) == 0 {
		t.Fatal("fig8 DES result empty")
	}
	// ~2x claim: the GPU-on run must be at least 1.5x faster overall, by
	// makespan (3.15x here).
	if speedup := offRes.Makespan.Seconds() / res.Makespan.Seconds(); speedup < 1.5 {
		t.Errorf("fig8 speedup = %.2fx (GPU off %v, on %v), want >= 1.5x", speedup, offRes.Makespan, res.Makespan)
	}
	// Memory series exists for figure 9.
	if len(res.MemSeries) == 0 || len(res.MemSeries[0]) == 0 {
		t.Error("fig8 run must produce memory samples")
	}
}
