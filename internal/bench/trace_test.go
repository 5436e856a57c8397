package bench

// End-to-end tests of the observability layer: every device event must be
// attributed to a query-rooted span, the Chrome export must be both
// schema-valid and byte-stable for a fixed seed, and a traced fault sweep
// must show every injected fault as a span attribute.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"blugpu/internal/engine"
	"blugpu/internal/fault"
	"blugpu/internal/optimizer"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// tracedEngine forces the GPU chain at toy scale (like sweepEngine) with
// a tracer attached, so kernel/transfer attribution is actually exercised.
func tracedEngine(t *testing.T, data *workload.Dataset, tr *trace.Tracer, inj *fault.Injector) *engine.Engine {
	t.Helper()
	eng, err := engine.New(engine.Config{
		Devices:          2,
		DeviceSpec:       vtime.TeslaK40(),
		Degree:           8,
		Thresholds:       optimizer.Thresholds{T1Rows: 1, T2Groups: 0, T3Rows: 1 << 40},
		GPUSortThreshold: 256,
		Faults:           inj,
		Tracer:           tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := data.RegisterAll(eng); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestTraceSmoke(t *testing.T) {
	data := workload.Generate(0.004, 7)
	tr := trace.New()
	eng := tracedEngine(t, data, tr, nil)
	qs := append(workload.BDInsights()[:10], workload.CognosROLAP()[:10]...)
	for _, q := range qs {
		if _, err := eng.QueryNamed(q.ID, q.SQL); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
	}

	if got := tr.Queries(); got != uint64(len(qs)) {
		t.Errorf("query roots = %d, want %d", got, len(qs))
	}
	if tr.Orphans() != 0 {
		t.Errorf("orphan device events = %d, want 0", tr.Orphans())
	}

	// Every span must be reachable from a query root through the parent
	// chain, and kernels/transfers must actually be present.
	spans := tr.Spans()
	byID := make(map[trace.SpanID]trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	kernels, transfers := 0, 0
	for _, s := range spans {
		switch s.Cat {
		case "kernel":
			kernels++
		case "transfer":
			transfers++
		}
		cur, hops := s, 0
		for cur.Parent != 0 {
			p, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %d (%s:%s) has dangling parent %d", s.ID, s.Cat, s.Name, cur.Parent)
			}
			cur, hops = p, hops+1
			if hops > 64 {
				t.Fatalf("span %d: parent chain does not terminate", s.ID)
			}
		}
		if cur.Cat != "query" {
			t.Errorf("span %d (%s:%s) roots at %s:%s, not a query", s.ID, s.Cat, s.Name, cur.Cat, cur.Name)
		}
		if s.Query != cur.Query {
			t.Errorf("span %d carries query %d but roots under query %d", s.ID, s.Query, cur.Query)
		}
	}
	if kernels == 0 || transfers == 0 {
		t.Errorf("trace has %d kernel and %d transfer spans; the GPU chain was not exercised", kernels, transfers)
	}

	var buf bytes.Buffer
	if err := tr.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Errorf("smoke export fails validation: %v", err)
	}
}

// TestTraceHarnessWiring checks the blubench path: a harness built with
// Config.Trace records spans for the experiment engines too.
func TestTraceHarnessWiring(t *testing.T) {
	tr := trace.New()
	h, err := NewHarness(Config{SF: 0.004, Seed: 7, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunBoth(workload.BDInsights()[0]); err != nil {
		t.Fatal(err)
	}
	// RunBoth executes the query twice (GPU on and off).
	if got := tr.Queries(); got != 2 {
		t.Errorf("harness run traced %d queries, want 2", got)
	}
	if tr.Orphans() != 0 {
		t.Errorf("orphans = %d", tr.Orphans())
	}
}

// TestTraceGoldenStable pins the Chrome export of a fixed-seed run
// byte-for-byte. Regenerate with: go test ./internal/bench -run Golden -update
func TestTraceGoldenStable(t *testing.T) {
	// Span layout depends only on modeled time, but run single-threaded
	// anyway so functional scheduling cannot perturb anything.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	data := workload.Generate(0.004, 7)
	export := func() []byte {
		tr := trace.New()
		eng := tracedEngine(t, data, tr, nil)
		for _, q := range workload.BDInsights()[:6] {
			if _, err := eng.QueryNamed(q.ID, q.SQL); err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
		}
		var buf bytes.Buffer
		if err := tr.ExportChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	got := export()
	if again := export(); !bytes.Equal(got, again) {
		t.Fatal("two identical fixed-seed runs exported different bytes")
	}
	if err := trace.ValidateChrome(got); err != nil {
		t.Fatalf("golden export invalid: %v", err)
	}

	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("export drifted from %s: got %d bytes, want %d (regenerate with -update if intentional)",
			golden, len(got), len(want))
	}
}

// TestTraceFaultAttribution asserts the acceptance invariant: with
// tracing on, every injected fault appears as exactly one span attribute.
func TestTraceFaultAttribution(t *testing.T) {
	data := workload.Generate(0.004, 7)
	inj := fault.New(fault.Config{Seed: 20160626, Reserve: 0.3, H2D: 0.2, D2H: 0.2, Kernel: 0.3})
	tr := trace.New()
	eng := tracedEngine(t, data, tr, inj)
	qs := append(workload.BDInsights(), workload.CognosROLAP()...)
	if testing.Short() {
		qs = qs[:30]
	}
	for i, q := range qs {
		if i == len(qs)/2 {
			inj.KillDevice(0)
		}
		if _, err := eng.QueryNamed(q.ID, q.SQL); err != nil {
			t.Fatalf("%s errored under faults: %v", q.ID, err)
		}
	}
	injected := inj.Counts().Total()
	if injected == 0 {
		t.Fatal("no faults fired; the test is vacuous")
	}
	if got := tr.FaultAttrCount(); got != injected {
		t.Errorf("trace shows %d fault attributes, injector fired %d", got, injected)
	}
	if tr.Orphans() != 0 {
		t.Errorf("orphan device events = %d, want 0", tr.Orphans())
	}
}

// TestFaultsExperimentReportsTrace checks the blubench surface: the
// faults experiment prints the trace accounting line when tracing is on,
// and runs the harness's data path — fused chains on the default arm,
// none with NoFusion, whose sweep is the paper's staged path.
func TestFaultsExperimentReportsTrace(t *testing.T) {
	for _, noFusion := range []bool{false, true} {
		t.Run(fmt.Sprintf("nofusion=%t", noFusion), func(t *testing.T) {
			tr := trace.New()
			h, err := NewHarness(Config{SF: 0.02, Seed: 7, Trace: tr, NoFusion: noFusion})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := h.Faults(&sb); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			if !strings.Contains(out, "fault span attributes") {
				t.Errorf("faults output missing trace accounting line:\n%s", out)
			}
			if tr.Orphans() != 0 {
				t.Errorf("orphans = %d", tr.Orphans())
			}
			if got, want := tr.FaultAttrCount(), injTotalFromOutput(out); got != want {
				t.Errorf("trace shows %d fault attributes, experiment reported %d injected", got, want)
			}
			chains := 0
			for _, sp := range tr.Spans() {
				if sp.Name == "fused-chain" {
					chains++
				}
			}
			if (chains > 0) == noFusion {
				t.Errorf("the sweep ran %d fused-chain attempts with NoFusion %t", chains, noFusion)
			}
		})
	}
}

// injTotalFromOutput parses "faults injected: ... (total N)" from the
// faults experiment report.
func injTotalFromOutput(out string) uint64 {
	_, rest, ok := strings.Cut(out, "(total ")
	if !ok {
		return 0
	}
	num, _, _ := strings.Cut(rest, ")")
	var n uint64
	for _, c := range num {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + uint64(c-'0')
	}
	return n
}
