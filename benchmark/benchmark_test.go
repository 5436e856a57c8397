package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {0.01, 1}, {1, 10}} {
		got, n := quantile(xs, c.q)
		if got != c.want || n != 10 {
			t.Errorf("quantile(q=%g) = %g (n=%d), want %g (n=10)", c.q, got, n, c.want)
		}
	}
	if v, n := quantile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("quantile(nil) = %g, %d", v, n)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

// The quartiles must be the ones Python's statistics.quantiles(n=4)
// gives, because the acceptance check computes spreads with it.
func TestSummarizeMatchesPythonQuartiles(t *testing.T) {
	sp := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if sp.Q1 != 2.75 || sp.Median != 5.5 || sp.Q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g, want 2.75 5.5 8.25", sp.Q1, sp.Median, sp.Q3)
	}
	if math.Abs(sp.IQRShare-1) > 1e-12 || math.Abs(sp.HalfSpread-4.5/5.5) > 1e-12 {
		t.Errorf("IQRShare %g HalfSpread %g", sp.IQRShare, sp.HalfSpread)
	}
	sp = summarize([]float64{1, 2}) // Python: [0.75, 1.5, 2.25]
	if sp.Q1 != 0.75 || sp.Q3 != 2.25 {
		t.Errorf("quartiles of [1 2] = %g %g, want 0.75 2.25", sp.Q1, sp.Q3)
	}
	sp = summarize([]float64{3, 1, 2}) // Python: [1.0, 2.0, 3.0]
	if sp.Q1 != 1 || sp.Median != 2 || sp.Q3 != 3 {
		t.Errorf("quartiles of [1 2 3] = %g %g %g", sp.Q1, sp.Median, sp.Q3)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b := schedule(42, 100, 3, openQPS), schedule(42, 100, 3, openQPS)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatal("equal seeds gave different schedules")
	}
	if c := schedule(43, 100, 3, openQPS); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}

	// Every lap is a permutation of the whole set.
	for lap := 0; lap < 3; lap++ {
		seen := make([]bool, 100)
		for _, r := range a[lap*100 : (lap+1)*100] {
			if seen[r.Stmt] {
				t.Fatalf("lap %d repeats statement %d", lap, r.Stmt)
			}
			seen[r.Stmt] = true
		}
	}
	// Arrivals ascend and the last is due at exactly n·laps/qps.
	for i := 1; i < len(a); i++ {
		if a[i].Due < a[i-1].Due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
	}
	if got, want := a[len(a)-1].Due, 10*time.Second; got < want-time.Microsecond || got > want+time.Microsecond {
		t.Errorf("last arrival due at %s, want %s", got, want)
	}
	// The statement order does not depend on whether arrivals are timed.
	closed := schedule(42, 100, 3, 0)
	for i := range a {
		if a[i].Stmt != closed[i].Stmt || closed[i].Due != 0 {
			t.Fatalf("request %d: open %+v closed %+v", i, a[i], closed[i])
		}
	}
}

func TestLapsFor(t *testing.T) {
	for _, c := range []struct {
		seconds float64
		lap     time.Duration
		want    int
	}{{10, 3500 * time.Millisecond, 3}, {10, 280 * time.Millisecond, 36}, {1, 5 * time.Second, 1}, {10, 0, 1}, {10, 4 * time.Second, 3}} {
		if got := lapsFor(c.seconds, c.lap); got != c.want {
			t.Errorf("lapsFor(%g, %s) = %d, want %d", c.seconds, c.lap, got, c.want)
		}
	}
}

const scrapeBefore = `# HELP blu_prof_wall_seconds_total Wall seconds.
# TYPE blu_prof_wall_seconds_total counter
blu_prof_wall_seconds_total{class="simple",phase="exec"} 1.5
blu_prof_wall_seconds_total{class="complex",phase="exec"} 2
blu_prof_wall_seconds_total{class="simple",phase="parse"} 0.25
blu_query_executions_total{query="a b"} 10
blu_trace_spans 100
`

const scrapeAfter = `blu_prof_wall_seconds_total{class="simple",phase="exec"} 2.5
blu_prof_wall_seconds_total{class="complex",phase="exec"} 4
blu_prof_wall_seconds_total{class="simple",phase="parse"} 0.75
blu_query_executions_total{query="a b"} 14
blu_query_executions_total{query="c"} 6
blu_serve_queries_total{outcome="shed"} 0
blu_serve_submitted_total 10
blu_trace_spans 350
not a sample line
`

func TestExpositionDeltas(t *testing.T) {
	before, after := parseExposition(scrapeBefore), parseExposition(scrapeAfter)
	if v, ok := delta(before, after, "blu_prof_wall_seconds_total", `phase="exec"`); !ok || v != 3 {
		t.Errorf("exec delta = %g, %v; want 3", v, ok)
	}
	if v, ok := delta(before, after, "blu_prof_wall_seconds_total", `phase="exec"`, `class="simple"`); !ok || v != 1 {
		t.Errorf("simple exec delta = %g, %v; want 1", v, ok)
	}
	// A label value with a space, and a series born inside the window.
	if v, ok := delta(before, after, "blu_query_executions_total"); !ok || v != 10 {
		t.Errorf("executions delta = %g, %v; want 10", v, ok)
	}
	// A family name that merely prefixes another must not match it.
	if _, ok := delta(before, after, "blu_query_executions"); ok {
		t.Error("prefix of a family name matched")
	}
	if _, ok := delta(before, after, "blu_obsd_scrapes_total"); ok {
		t.Error("absent family reported present")
	}

	res := &runResult{Metrics: map[string]float64{}, N: map[string]int{}}
	scrapeMetrics(res, before, after)
	want := map[string]float64{
		"prof.exec_ms_per_query":  300,   // 3 s over 10 queries
		"prof.parse_us_per_query": 50000, // 0.5 s over 10 queries
		"serve.shed_ratio":        0,
		"trace.spans_per_query":   25,
		"trace.spans_held_end":    350,
	}
	for name, w := range want {
		if got, ok := res.Metrics[name]; !ok || math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %g (present %v), want %g", name, got, ok, w)
		}
	}
	for _, name := range []string{"obsd.scrape_wall_ms", "gpu.kernels_per_query", "prof.plan_us_per_query", "runtime.heap_mb_end"} {
		if _, ok := res.Metrics[name]; ok {
			t.Errorf("%s reported although its family is absent", name)
		}
	}
}

func TestProcReaders(t *testing.T) {
	// comm may hold spaces and parentheses; utime=250 stime=50 ticks.
	stat := []byte("1234 (blu serve) (x)) S 1 1234 1234 0 -1 4194560 9000 0 3 0 250 50 0 0 20 0 9 0 100 1000 200\n")
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 3.0 {
		t.Errorf("parseStatCPU = %g, %v; want 3", cpu, err)
	}
	if _, err := parseStatCPU([]byte("1234 (x) S 1 2")); err == nil {
		t.Error("short stat line accepted")
	}
	status := []byte("Name:\tbluserve\nVmPeak:\t 2000000 kB\nVmHWM:\t  692884 kB\nVmRSS:\t  500000 kB\n")
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 692884 {
		t.Errorf("VmHWM = %g, %v", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}

	// And against the live kernel: this process has used some CPU and
	// some memory, and CPU time does not run backwards.
	c0, err := procCPU(0)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := procPeakMB(os.Getpid())
	if err != nil || mb <= 0 {
		t.Fatalf("procPeakMB = %g, %v", mb, err)
	}
	if c1, _ := procCPU(os.Getpid()); c1 < c0 {
		t.Errorf("CPU went from %g to %g", c0, c1)
	}
}

func TestCompareTablesTolerance(t *testing.T) {
	ref, err := tableFromRows([]string{"k", "sum", "name", "n"}, [][]any{
		{int64(1), 77977378.5200852, "a", nil},
		{int64(2), 3.0, "b", int64(7)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// What the same rows look like after a trip through JSON: numbers as
	// json.Number, the integral float as an integer token, and the big
	// sum off by one ulp as parallel summation leaves it.
	ulp := math.Nextafter(77977378.5200852, math.Inf(1))
	body, _ := json.Marshal([][]any{{1, ulp, "a", nil}, {2, 3.0, "b", 7}})
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var rows [][]any
	if err := dec.Decode(&rows); err != nil {
		t.Fatal(err)
	}
	got, err := tableFromRows(ref.Cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareTables(ref, got); err != nil {
		t.Errorf("last-ulp float difference rejected: %v", err)
	}

	mutate := func(f func(tb *table)) error {
		cp := table{Cols: append([]string(nil), got.Cols...)}
		for _, r := range got.Rows {
			cp.Rows = append(cp.Rows, append([]cell(nil), r...))
		}
		f(&cp)
		return compareTables(ref, cp)
	}
	for name, f := range map[string]func(tb *table){
		"float beyond tolerance": func(tb *table) { tb.Rows[0][1].F *= 1 + 1e-6 },
		"integer off by one":     func(tb *table) { tb.Rows[1][0].I++ },
		"string differs":         func(tb *table) { tb.Rows[0][2].S = "A" },
		"NULL became a value":    func(tb *table) { tb.Rows[0][3] = cell{K: 'i'} },
		"value became NULL":      func(tb *table) { tb.Rows[1][3] = cell{K: 'n'} },
		"integer read as float":  func(tb *table) { tb.Rows[1][0] = cell{K: 'f', F: 2} },
		"row missing":            func(tb *table) { tb.Rows = tb.Rows[:1] },
		"rows swapped":           func(tb *table) { tb.Rows[0], tb.Rows[1] = tb.Rows[1], tb.Rows[0] },
		"column renamed":         func(tb *table) { tb.Cols[1] = "total" },
	} {
		if err := mutate(f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLayerSelfTimes(t *testing.T) {
	// One request: root 0..1000 with parse, build, http(engine) and
	// do(engine, serialize) under it.
	spans := []span{
		{ID: 0, Parent: -1, Req: 1, Name: "request", StartUs: 0, EndUs: 1000, Allocs: 100},
		{ID: 1, Parent: 0, Req: 1, Name: "sqlparse.parse", StartUs: 0, EndUs: 20, Allocs: 10},
		{ID: 2, Parent: 0, Req: 1, Name: "plan.build", StartUs: 20, EndUs: 50, Allocs: 5},
		{ID: 3, Parent: 0, Req: 1, Name: "http", StartUs: 50, EndUs: 550, Allocs: 50},
		{ID: 4, Parent: 3, Req: 1, Name: "engine.execute", StartUs: 100, EndUs: 500, Allocs: 30, GPUUs: 100, HostUs: 200, GatherUs: 50},
		{ID: 5, Parent: 0, Req: 1, Name: "serve.do", StartUs: 550, EndUs: 990, Allocs: 35},
		{ID: 6, Parent: 5, Req: 1, Name: "engine.execute", StartUs: 560, EndUs: 940, Allocs: 25},
		{ID: 7, Parent: 5, Req: 1, Name: "serve.serialize", StartUs: 940, EndUs: 970, Allocs: 6},
	}
	res := &runResult{Metrics: map[string]float64{}, N: map[string]int{}}
	layerMetrics(res, spans)
	want := map[string]float64{
		"sqlparse.parse_us":     20,
		"plan.allocs":           5,
		"engine.execute_ms":     0.4,
		"engine.exec_gpu_ms":    0.1,
		"engine.exec_other_ms":  0.05,
		"serve.self_us":         30, // 440 − 380 − 30
		"serve.allocs":          4,  // 35 − 25 − 6
		"serve.serialize_us":    30,
		"http.self_us":          40, // (500 − 400) − 30 − 30
		"http.allocs":           10, // (50 − 30) − 4 − 6
		"bench.trace_coverage":  0.99,
		"engine.exec_gather_ms": 0.05,
	}
	for name, w := range want {
		if got, ok := res.Metrics[name]; !ok || math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %g (present %v), want %g", name, got, ok, w)
		}
	}
}

// BENCHMARK.json is generated from the catalogue (-spec); the committed
// file must be that output, and must stay inside the driver's limits.
func TestSpecMatchesCatalogue(t *testing.T) {
	spec := specJSON()
	if committed, err := os.ReadFile("../BENCHMARK.json"); err == nil && !bytes.Equal(committed, spec) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -spec`")
	}
	if len(spec) > 64<<10 {
		t.Errorf("spec is %d bytes", len(spec))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m metricDef) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("bad or repeated metric %q (unit %q)", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Error("catalogue outside the contract's sizes")
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len([]rune(w.Why)) > 200 {
			t.Errorf("bad workload %q (why is %d characters)", w.Name, len([]rune(w.Why)))
		}
		seen[w.Name] = true
	}
}
