package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// takeQuickSnapshot shares one small snapshot across the tests in this
// file; TakeSnapshot runs the whole suite, so take it once.
var quickSnap *Snapshot

func quickSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	if quickSnap == nil {
		// 0.02 is the smallest scale where the optimizer routes work to
		// the GPU (smaller inputs sit below the Figure-3 thresholds), so
		// the kernel/placement counter assertions are meaningful.
		s, err := TakeSnapshot(Config{SF: 0.02, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		quickSnap = s
	}
	return quickSnap
}

func TestSnapshotCoversSuite(t *testing.T) {
	s := quickSnapshot(t)
	want := []string{"bd_complex", "bd_intermediate", "rolap_gated", "mixed_makespan"}
	if len(s.Experiments) != len(want) {
		t.Fatalf("got %d experiments, want %d", len(s.Experiments), len(want))
	}
	for i, name := range want {
		e := s.Experiments[i]
		if e.Name != name {
			t.Errorf("experiment %d = %q, want %q", i, e.Name, name)
		}
		if e.ModeledOnMs <= 0 || e.ModeledOffMs <= 0 {
			t.Errorf("%s: modeled times must be positive: on=%g off=%g", name, e.ModeledOnMs, e.ModeledOffMs)
		}
		if e.Queries == 0 {
			t.Errorf("%s: no queries recorded", name)
		}
	}
	if s.Schema != SnapshotSchema || s.SF != 0.02 || s.Seed != 7 || s.Devices != 2 || s.Degree != 24 {
		t.Errorf("config not captured: %+v", s)
	}
	if s.Counters.KernelExecs == 0 {
		t.Error("no kernel executions counted — the GPU path never ran")
	}
	if s.Counters.Placements == 0 {
		t.Error("no scheduler placements counted")
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	s := quickSnapshot(t)
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	regs, err := Compare(s, got, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("roundtripped snapshot regressed against itself: %v", regs)
	}
}

func TestCompareDetectsInjectedRegression(t *testing.T) {
	base := quickSnapshot(t)
	cur := *base
	cur.Experiments = append([]ExperimentSnap(nil), base.Experiments...)
	// Inflate one experiment's GPU-on time by 20%: a 5% gate must trip
	// on exactly that metric.
	cur.Experiments[0].ModeledOnMs *= 1.20
	regs, err := Compare(base, &cur, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("want exactly 1 regression, got %d: %v", len(regs), regs)
	}
	r := regs[0]
	if r.Experiment != base.Experiments[0].Name || r.Metric != "modeled_on_ms" {
		t.Fatalf("wrong regression attributed: %+v", r)
	}
	if r.Frac < 0.19 || r.Frac > 0.21 {
		t.Fatalf("frac = %g, want ~0.20", r.Frac)
	}

	// The same inflation under a 25% gate passes.
	regs, err = Compare(base, &cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("20%% growth must pass a 25%% gate: %v", regs)
	}
}

// TestCompareGatesTransferH2D is the lower-is-better gate's self-test:
// H2D byte growth beyond the threshold must trip, shrinkage (the fusion
// win) must pass, and baselines from before the direction split — which
// carry only the combined TransferBytes — must gate against that total.
func TestCompareGatesTransferH2D(t *testing.T) {
	base := quickSnapshot(t)
	if base.Experiments[0].TransferH2DBytes == 0 {
		t.Fatal("suite snapshot records no H2D bytes; the gate would be inert")
	}
	clone := func() *Snapshot {
		cur := *base
		cur.Experiments = append([]ExperimentSnap(nil), base.Experiments...)
		return &cur
	}

	// Growth trips on exactly the inflated experiment.
	cur := clone()
	cur.Experiments[0].TransferH2DBytes = int64(float64(cur.Experiments[0].TransferH2DBytes) * 1.20)
	regs, err := Compare(base, cur, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "transfer_h2d_bytes" || regs[0].Experiment != base.Experiments[0].Name {
		t.Fatalf("20%% H2D growth must trip the gate once, got %v", regs)
	}

	// Shrinkage never trips: lower is better.
	cur = clone()
	for i := range cur.Experiments {
		cur.Experiments[i].TransferH2DBytes /= 2
	}
	if regs, err = Compare(base, cur, 0.05); err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("halved H2D bytes must pass: %v", regs)
	}

	// Pre-split baseline: H2D column absent, combined TransferBytes is
	// the stand-in base. Current runs at or below it pass; beyond it trip.
	old := clone()
	for i := range old.Experiments {
		old.Experiments[i].TransferH2DBytes = 0
		old.Experiments[i].TransferD2HBytes = 0
	}
	if regs, err = Compare(old, base, 0.05); err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("current H2D below the combined baseline must pass: %v", regs)
	}
	cur = clone()
	cur.Experiments[0].TransferH2DBytes = int64(float64(old.Experiments[0].TransferBytes) * 1.20)
	if regs, err = Compare(old, cur, 0.05); err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "transfer_h2d_bytes" {
		t.Fatalf("growth past the combined baseline must trip, got %v", regs)
	}
}

func TestCompareMissingExperiment(t *testing.T) {
	base := quickSnapshot(t)
	cur := *base
	cur.Experiments = base.Experiments[:len(base.Experiments)-1]
	regs, err := Compare(base, &cur, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range regs {
		if r.Metric == "missing" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dropped experiment must be a regression: %v", regs)
	}
}

func TestCompareRejectsConfigMismatch(t *testing.T) {
	base := quickSnapshot(t)
	cur := *base
	cur.Seed = base.Seed + 1
	if _, err := Compare(base, &cur, 0.05); err == nil {
		t.Fatal("seed mismatch must not be comparable")
	}
	cur = *base
	cur.Schema = base.Schema + 1
	if _, err := Compare(base, &cur, 0.05); err == nil {
		t.Fatal("schema mismatch must not be comparable")
	}
}

func TestWriteDiffMarksFailures(t *testing.T) {
	base := quickSnapshot(t)
	cur := *base
	cur.Experiments = append([]ExperimentSnap(nil), base.Experiments...)
	cur.Experiments[0].ModeledOnMs *= 2
	regs, err := Compare(base, &cur, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteDiff(&sb, base, &cur, regs)
	out := sb.String()
	if !strings.Contains(out, "FAIL") {
		t.Fatalf("diff table must mark the failed gate:\n%s", out)
	}
	if !strings.Contains(out, "wall_ms") {
		t.Fatalf("diff table must include ungated wall column:\n%s", out)
	}
}

func TestSnapshotDeterministicModeledColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("second full snapshot is slow")
	}
	a := quickSnapshot(t)
	b, err := TakeSnapshot(Config{SF: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Threshold 0 in both directions: neither run may exceed the other in
	// any gated column.
	for _, pair := range [2][2]*Snapshot{{a, b}, {b, a}} {
		regs, err := Compare(pair[0], pair[1], 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 0 {
			t.Fatalf("two snapshots of the same config differ in a gated column: %v", regs)
		}
	}
	for i := range a.Experiments {
		if a.Experiments[i].KernelExecs != b.Experiments[i].KernelExecs {
			t.Fatalf("experiment %s not deterministic:\n%+v\n%+v",
				a.Experiments[i].Name, a.Experiments[i], b.Experiments[i])
		}
	}
}

func TestReadSnapshotErrors(t *testing.T) {
	if _, err := ReadSnapshot(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bad); err == nil {
		t.Fatal("malformed JSON must error")
	}
}
