package metrics

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blugpu/internal/gpu"
	"blugpu/internal/monitor"
	"blugpu/internal/sched"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testSources builds a fully deterministic source set covering every
// collector path: kernels, evaluators, queries, transfers,
// reservations, faults, retries, fallbacks, breaker state, device
// occupancy, scheduler health and a traced span.
func testSources(t *testing.T) Sources {
	t.Helper()
	m := monitor.New()
	for i, k := range []struct {
		name string
		d    vtime.Duration
	}{
		{"grpby_k1", 2 * vtime.Millisecond},
		{"grpby_k1", 3 * vtime.Millisecond},
		{"grpby_k2", 500 * vtime.Microsecond},
		{"radix_partition", 1 * vtime.Millisecond},
	} {
		m.RecordGPUEvent(gpu.Event{Kind: gpu.EventKernel, Name: k.name, Modeled: k.d, Device: i % 2})
	}
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventTransferH2D, Bytes: 1 << 20, Modeled: 100 * vtime.Microsecond})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventTransferD2H, Bytes: 1 << 18, Modeled: 40 * vtime.Microsecond})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventReserve})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventReserve})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventReserveFail, Bytes: 1 << 24})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventFault, Name: "kernel"})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventFault, Name: "h2d"})
	m.RecordEvaluator("LCOG", 4096, 250*vtime.Microsecond)
	m.RecordEvaluator("HASH", 4096, 700*vtime.Microsecond)
	m.RecordQuery("bd-complex-1", 4*vtime.Millisecond, true)
	m.RecordQuery("bd-complex-1", 5*vtime.Millisecond, false)
	m.RecordQuery("rolap-07", 2*vtime.Millisecond, true)
	m.RecordGPURetry("place", true)
	m.RecordFallback("groupby", false)
	m.RecordBreaker(1, true)
	m.RecordDecision("gpu", "eligible")
	m.RecordDecision("gpu", "eligible")
	m.RecordDecision("cpu", "groups<=T2")
	m.RecordKMVError(0.02)
	m.RecordKMVError(0.10)
	m.RecordFusedChain(1<<20, 1<<19)
	m.RecordFusedChain(1<<21, 0)

	spec := vtime.TeslaK40()
	devices := []*gpu.Device{gpu.NewDevice(0, spec), gpu.NewDevice(1, spec)}
	s, err := sched.New(devices...)
	if err != nil {
		t.Fatal(err)
	}
	// One finished placement for the scheduler's counters, then a direct
	// reservation held past the scrape for the occupancy gauges.
	noop := func(*gpu.Reservation) error { return nil }
	if _, err := s.Run(trace.Context{}, 0, 1<<20, nil, noop); err != nil {
		t.Fatal(err)
	}
	if _, err := devices[0].Reserve(1 << 20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sched.DefaultFailThreshold; i++ {
		s.ReportFailure(devices[1])
	}

	tr := trace.New()
	tc := tr.StartQuery("bd-complex-1", 0)
	op := tc.Begin("op", "groupby", 0)
	op.End(vtime.Time(0.002), trace.Int("rows", 128))
	tc.End(vtime.Time(0.004))

	return Sources{Monitor: m, Sched: s, Devices: devices, Tracer: tr, GPUEnabled: true}
}

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
		t.Fatalf("read golden: %v (run `go test ./internal/metrics -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (run -update after reviewing)\n--- got ---\n%s", name, got)
	}
}

// TestExpositionGolden locks the full deterministic exposition —
// ordering, escaping, formatting — behind a golden file.
func TestExpositionGolden(t *testing.T) {
	r := Collect(testSources(t))
	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(text.Bytes()); err != nil {
		t.Fatalf("golden exposition must self-validate: %v", err)
	}
	golden(t, "exposition_golden.txt", text.Bytes())
}

// TestCollectDeterministic re-collects the same sources and demands
// byte-identical output — the property the scrape diffing and the
// golden tests stand on.
func TestCollectDeterministic(t *testing.T) {
	src := testSources(t)
	var a, b bytes.Buffer
	Collect(src).WriteText(&a)
	Collect(src).WriteText(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two collections of identical state rendered differently")
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	c.With(L("k", "plain")).Add(1)
	c.With(L("k", `back\slash`)).Add(1)
	c.With(L("k", `"quoted"`)).Add(1)
	c.With(L("k", "new\nline")).Add(1)
	c.With(L("k", "uni·code")).Add(1)
	var b bytes.Buffer
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		`c_total{k="plain"} 1`,
		`c_total{k="back\\slash"} 1`,
		`c_total{k="\"quoted\""} 1`,
		`c_total{k="new\nline"} 1`,
		`c_total{k="uni·code"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// 1 HELP + 1 TYPE + 5 samples: a raw newline leaking into a label
	// value would add a line.
	if got := strings.Count(out, "\n"); got != 7 {
		t.Fatalf("want 7 lines, got %d — raw newline leaked?\n%s", got, out)
	}
	if err := ValidateExposition(b.Bytes()); err != nil {
		t.Fatalf("escaped exposition must validate: %v", err)
	}
}

// TestSeriesID: a series identity is the left-hand side of its
// exposition line — a bare name without labels, label values escaped
// as WriteText escapes them — so a store keyed by it names a series
// the way a scrape does.
func TestSeriesID(t *testing.T) {
	for _, c := range []struct {
		labels []Label
		want   string
	}{
		{nil, `c_total`},
		{[]Label{L("k", "plain")}, `c_total{k="plain"}`},
		{[]Label{L("a", "x"), L("k", "y")}, `c_total{a="x",k="y"}`},
		{[]Label{L("k", `back\slash`)}, `c_total{k="back\\slash"}`},
		{[]Label{L("k", `"quoted"`)}, `c_total{k="\"quoted\""}`},
		{[]Label{L("k", "new\nline")}, `c_total{k="new\nline"}`},
	} {
		if got := SeriesID("c_total", c.labels); got != c.want {
			t.Errorf("SeriesID(%v) = %s, want %s", c.labels, got, c.want)
		}
		r := NewRegistry()
		r.Counter("c_total", "h").With(c.labels...).Add(2)
		var b bytes.Buffer
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "\n"+c.want+" 2\n") {
			t.Errorf("exposition has no line %q:\n%s", c.want+" 2", b.String())
		}
	}
}

// TestFormatValue: integers print without exponent or decimal point up
// to 1e15, other values in Go's shortest 'g' form, and the three
// non-finite values by their exposition spellings.
func TestFormatValue(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{3, "3"},
		{-42, "-42"},
		{1 << 30, "1073741824"},
		{999999999999999, "999999999999999"},
		{1e15, "1e+15"},
		{0.25, "0.25"},
		{1.5e-7, "1.5e-07"},
		{math.Inf(+1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{math.NaN(), "NaN"},
	} {
		if got := FormatValue(c.v); got != c.want {
			t.Errorf("FormatValue(%v) = %s, want %s", c.v, got, c.want)
		}
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "line one\nline two \\ backslash").With().Add(1)
	var b bytes.Buffer
	r.WriteText(&b)
	if !strings.Contains(b.String(), `# HELP c_total line one\nline two \\ backslash`) {
		t.Fatalf("HELP not escaped:\n%s", b.String())
	}
	if err := ValidateExposition(b.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestMetricNameSanitizedInExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird name-total", "h").With(L("bad label", "v")).Add(1)
	var b bytes.Buffer
	r.WriteText(&b)
	if !strings.Contains(b.String(), `weird_name_total{bad_label="v"} 1`) {
		t.Fatalf("names not sanitized:\n%s", b.String())
	}
	if err := ValidateExposition(b.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no samples":        "# TYPE a counter\n",
		"missing TYPE":      "a_total 1\n",
		"bad name":          "# TYPE 9bad counter\n9bad 1\n",
		"bad value":         "# TYPE a counter\na value\n",
		"unbalanced quote":  "# TYPE a counter\na{k=\"v} 1\n",
		"unquoted label":    "# TYPE a counter\na{k=v} 1\n",
		"duplicate series":  "# TYPE a counter\na{k=\"v\"} 1\na{k=\"v\"} 2\n",
		"duplicate TYPE":    "# TYPE a counter\n# TYPE a counter\na 1\n",
		"hist bare sample":  "# TYPE h histogram\nh 1\n",
		"bucket without le": "# TYPE h histogram\nh_bucket{k=\"v\"} 1\nh_sum 1\nh_count 1\n",
		"hist missing +Inf": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"bad escape":        "# TYPE a counter\na{k=\"\\x\"} 1\n",
	}
	for name, data := range cases {
		if err := ValidateExposition([]byte(data)); err == nil {
			t.Errorf("%s: expected validation error for:\n%s", name, data)
		}
	}
}

func TestValidateExpositionAccepts(t *testing.T) {
	ok := "# arbitrary comment\n" +
		"# HELP a_total help text\n" +
		"# TYPE a_total counter\n" +
		`a_total{k="v,with=punct"} 1` + "\n" +
		"# TYPE g gauge\ng -2.5e-3\n" +
		"# TYPE h histogram\n" +
		`h_bucket{le="0.5"} 1` + "\n" +
		`h_bucket{le="+Inf"} 2` + "\n" +
		"h_sum 1.5\nh_count 2\n"
	if err := ValidateExposition([]byte(ok)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
}

// TestCollectIdleEngine: a scrape of a freshly booted engine — no
// queries, no kernels, no devices — must still be a valid exposition.
// Every per-name family is empty at that point and must be omitted
// rather than emitted as bare metadata.
func TestCollectIdleEngine(t *testing.T) {
	var text bytes.Buffer
	if err := Collect(Sources{Monitor: monitor.New()}).WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(text.Bytes()); err != nil {
		t.Fatalf("idle-engine scrape invalid: %v\n%s", err, text.String())
	}
	if !strings.Contains(text.String(), "blu_gpu_enabled 0") {
		t.Fatalf("idle scrape must still report gpu_enabled:\n%s", text.String())
	}
}
