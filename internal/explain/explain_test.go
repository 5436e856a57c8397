package explain

import (
	"strings"
	"testing"

	"blugpu/internal/optimizer"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// buildTestInput assembles a synthetic query: a scan feeding a group-by
// that took the GPU path with one kernel, two transfers, one placement
// and an injected-fault retry before succeeding on a second device.
func buildTestInput(t *testing.T) Input {
	t.Helper()
	tr := trace.New()
	tc := tr.StartQuery("q1", 0)

	scan := tc.Begin("op", "scan", 0)
	scan.End(vtime.Time(0.001), trace.Int("rows", 1000))

	op := tc.Begin("op", "groupby", vtime.Time(0.001))
	place := op.Begin("sched", "place", vtime.Time(0.001))
	place.End(vtime.Time(0.001), trace.Int("demand_bytes", 4096), trace.Int("device", 0))
	g1 := op.Begin("gpu", "gpu-groupby attempt 1", vtime.Time(0.001))
	tr.RecordDeviceEvent(g1.ID(), 0, "kernel", "grpby_k1", 0, 100*vtime.Microsecond)
	g1.Annotate(trace.Str("fault", "kernel"))
	g1.End(vtime.Time(0.0011), trace.Str("error", "injected"))
	op.Emit("gpu", "retry-backoff", vtime.Time(0.0011), 100*vtime.Microsecond, trace.Str("cause", "injected"))
	place2 := op.Begin("sched", "place", vtime.Time(0.0012))
	place2.End(vtime.Time(0.0012), trace.Int("demand_bytes", 8192), trace.Int("device", 1))
	g2 := op.Begin("gpu", "gpu-groupby attempt 2", vtime.Time(0.0012))
	tr.RecordDeviceEvent(g2.ID(), 1, "h2d", "h2d", 2048, 10*vtime.Microsecond)
	tr.RecordDeviceEvent(g2.ID(), 1, "kernel", "grpby_k1", 0, 100*vtime.Microsecond)
	tr.RecordDeviceEvent(g2.ID(), 1, "d2h", "d2h", 512, 5*vtime.Microsecond)
	g2.End(vtime.Time(0.0014), trace.Int("device", 1))
	op.End(vtime.Time(0.0014), trace.Int("rows", 8))
	tc.End(vtime.Time(0.0014), trace.Int("rows", 8))

	// Estimates above T1/T2 and within device memory: the plan-time
	// decision is "gpu (eligible)", matching the runtime outcome below.
	pr := optimizer.Prognose([]string{"k"}, optimizer.Estimate{Rows: 100_000, Groups: 64, MemoryDemand: 4096},
		optimizer.DefaultThresholds(), 1<<30)
	ops := []OpRecord{
		{Op: "scan", Detail: "t", Depth: 2, Rows: 1000, Span: scan.ID(), Start: 0, End: vtime.Time(0.001), Modeled: vtime.Duration(0.001)},
		{Op: "groupby", Detail: "gpu/grpby_k1", Depth: 1, Rows: 8, Span: op.ID(),
			Start: vtime.Time(0.001), End: vtime.Time(0.0014), Modeled: vtime.Duration(0.0003),
			Agg: &AggRecord{
				Keys: []string{"k"}, Plan: &pr, InputRows: 1000, EstGroups: 8, ActualGroups: 8,
				MemoryDemand: 4096, Decision: "gpu", Reason: "eligible", Path: "gpu/grpby_k1",
				Attempts: 2, Retries: 1, Devices: []int{0, 1},
			}},
		{Op: "limit", Depth: 0, Rows: 8, Span: 0, Start: vtime.Time(0.0014), End: vtime.Time(0.0014)},
	}
	return Input{
		Query:      "q1",
		SQL:        "SELECT ...",
		Plan:       "limit(aggregate(scan(t)))",
		GPUEnabled: true,
		Thresholds: optimizer.DefaultThresholds(),
		Modeled:    vtime.Duration(0.0014),
		Rows:       8,
		Ops:        ops,
		Spans:      tr.QuerySpans(1),
		Monitor:    Totals{Kernels: 2, Transfers: 2, TransferBytes: 2560, Retries: 1, Faults: 1},
		Host:       HostMemStats{WatermarkBytes: 4096, FreeSpans: 1, MaxFreeSpans: 2, Allocs: 3},
		Orphans:    0,
	}
}

func TestBuildReconciles(t *testing.T) {
	rep := Build(buildTestInput(t))
	if !rep.Reconciled() {
		t.Fatalf("synthetic query must reconcile: unattributed=%d orphans=%d mismatches=%v",
			rep.Unattributed, rep.Orphans, rep.Totals.Mismatches)
	}
	// Display order is plan order: root (limit) first, scan last.
	if rep.Ops[0].Op != "limit" || rep.Ops[2].Op != "scan" {
		t.Fatalf("display order wrong: %s .. %s", rep.Ops[0].Op, rep.Ops[2].Op)
	}
	gb := rep.Ops[1]
	if gb.Kernels != 2 || gb.Transfers != 2 || gb.TransferBytes != 2560 {
		t.Fatalf("groupby device tallies: kernels=%d transfers=%d bytes=%d", gb.Kernels, gb.Transfers, gb.TransferBytes)
	}
	if gb.Placements != 2 || gb.Retries != 1 || gb.Faults != 1 {
		t.Fatalf("groupby robustness tallies: placements=%d retries=%d faults=%d", gb.Placements, gb.Retries, gb.Faults)
	}
	if gb.Groupby == nil || gb.Groupby.Plan == nil || !gb.Groupby.Plan.Agrees {
		t.Fatalf("groupby audit missing or disagreeing: %+v", gb.Groupby)
	}
	// The device high-water is the largest successful reservation.
	if rep.Memory.DeviceHighWaterBytes != 8192 {
		t.Fatalf("device high-water = %d, want 8192", rep.Memory.DeviceHighWaterBytes)
	}
	// The zero-span limit operator still counts as attributed: it charged
	// no time.
	if !rep.Ops[0].Attributed {
		t.Fatal("zero-width limit must be attributed")
	}
}

func TestBuildFlagsMismatches(t *testing.T) {
	in := buildTestInput(t)
	in.Monitor.Kernels = 5   // monitor says 5, spans say 2
	in.Monitor.Fallbacks = 1 // no fallback attr anywhere
	rep := Build(in)
	if rep.Reconciled() {
		t.Fatal("cooked totals must not reconcile")
	}
	joined := strings.Join(rep.Totals.Mismatches, "; ")
	for _, want := range []string{"kernels: monitor=5 spans=2", "fallbacks: monitor=1 spans=0"} {
		if !strings.Contains(joined, want) {
			t.Errorf("mismatches %q missing %q", joined, want)
		}
	}
	if !strings.Contains(rep.Text(), "status: MISMATCH") {
		t.Error("text render must flag the mismatch")
	}
}

func TestBuildCountsUnattributed(t *testing.T) {
	in := buildTestInput(t)
	// An operator that charged time but lost its span.
	in.Ops[0].Span = trace.SpanID(999999)
	rep := Build(in)
	if rep.Unattributed == 0 {
		t.Fatal("dangling span id must count as unattributed")
	}
	if rep.Reconciled() {
		t.Fatal("unattributed run must not reconcile")
	}
	if !strings.Contains(rep.Text(), "UNATTRIBUTED") {
		t.Error("text render must mark the unattributed operator")
	}
}

func TestRenderDeterminismAndJSONRoundTrip(t *testing.T) {
	in := buildTestInput(t)
	r1, r2 := Build(in), Build(in)
	if r1.Text() != r2.Text() {
		t.Fatal("text render differs across identical builds")
	}
	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := r2.JSON()
	if string(j1) != string(j2) {
		t.Fatal("JSON render differs across identical builds")
	}
	if err := ValidateReport(j1); err != nil {
		t.Fatalf("generated JSON must self-validate: %v", err)
	}
	back, err := Decode(j1)
	if err != nil {
		t.Fatal(err)
	}
	if back.Query != r1.Query || len(back.Ops) != len(r1.Ops) || !back.Reconciled() {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestValidateReportRejects(t *testing.T) {
	good, err := Build(buildTestInput(t)).JSON()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"not json", "{", "invalid JSON"},
		{"wrong schema", `{"schema": 99}`, "schema 99"},
		{"no ops", `{"schema": 1, "query": "q", "plan": "p", "thresholds": "t",
			"modeled_ms": 1, "rows": 1, "unattributed": 0, "orphans": 0, "ops": []}`, "no operators"},
	}
	for _, c := range cases {
		if err := ValidateReport([]byte(c.doc)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
	// Deleting a required totals key must fail even though the struct
	// would decode fine (the validator is independent of the struct).
	mangled := strings.Replace(string(good), `"kernel_spans"`, `"kernel_spanz"`, 1)
	if err := ValidateReport([]byte(mangled)); err == nil {
		t.Error("renamed totals key must fail validation")
	}
	if err := ValidateReport(good); err != nil {
		t.Errorf("good report rejected: %v", err)
	}
}
