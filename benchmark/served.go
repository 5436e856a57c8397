package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"blugpu/internal/workload"
)

// runOpts are one run's settings.
type runOpts struct {
	SF      float64
	Seed    int64
	Seconds float64
	Setups  int    // set-ups to time; the last one serves the workload
	Traced  bool   // also make the in-process traced run
	Server  string // path of the built bluserve
	Self    string // path of this binary, for the paper_serial child
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// N is the sample count behind each percentile and median.
	N        map[string]int `json:"n"`
	Failures []string       `json:"failures,omitempty"`

	samples []sample
}

func newResult(w *workloadDef, seed int64) *runResult {
	return &runResult{Workload: w.Name, Seed: seed, Metrics: map[string]float64{}, N: map[string]int{}}
}

func (r *runResult) set(name string, v float64) { r.Metrics[name] = v }

// setMedian records a median and the number of values behind it.
func (r *runResult) setMedian(name string, xs []float64) {
	if len(xs) > 0 {
		r.Metrics[name], r.N[name] = median(xs), len(xs)
	}
}

// setQ records a nearest-rank percentile and its sample count.
func (r *runResult) setQ(name string, xs []float64, q float64) {
	if len(xs) == 0 {
		return
	}
	v, n := quantile(xs, q)
	r.Metrics[name], r.N[name] = v, n
}

// runServed measures one served workload against a fresh bluserve.
func runServed(w *workloadDef, opt runOpts, refs map[string]table) (*runResult, error) {
	res := newResult(w, opt.Seed)
	stmts := w.Stmts()
	phase := phaseTimer()

	// Set-up, several times: a single start is ±10 % on a shared box.
	// Each server is fresh; only the last one is kept.
	var setups []float64
	var srv *child
	var base string
	for i := 0; i < opt.Setups; i++ {
		if srv != nil {
			srv.kill()
		}
		var took time.Duration
		var err error
		if srv, base, took, err = startServer(opt.Server, opt.SF); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer srv.kill()
	res.setMedian("setup_s", setups)
	phase("set-ups")

	// One unmeasured lap touches every statement once (column cache,
	// fusion cache, HTTP connections) and times a lap.
	hc := newClient()
	defer hc.CloseIdleConnections()
	warmStart := time.Now()
	warm := drive(hc, base, stmts, schedule(opt.Seed+1<<32, len(stmts), 1, 0), false)
	lap := time.Since(warmStart)
	verify(warm, refs)
	for _, s := range warm {
		if !s.OK {
			return nil, fmt.Errorf("warm-up lap: %s: %s", s.Stmt, s.Err)
		}
	}
	phase("warm-up lap")

	qps := 0.0
	if w.Open {
		qps = openQPS
		lap = time.Duration(float64(len(stmts)) / qps * float64(time.Second))
	}
	reqs := schedule(opt.Seed, len(stmts), lapsFor(opt.Seconds, lap), qps)

	before, err := scrape(hc, base)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(srv.pid)
	if err != nil {
		return nil, err
	}
	rss := startRSSSampler(srv.pid)
	samples := drive(hc, base, stmts, reqs, w.Open)
	res.set("rss_mean_mb", rss.mean())
	cpu1, err := procCPU(srv.pid)
	if err != nil {
		return nil, err
	}
	peak, err := procPeakMB(srv.pid)
	if err != nil {
		return nil, err
	}
	after, err := scrape(hc, base)
	if err != nil {
		return nil, err
	}
	var scrapeMs []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := scrape(hc, base); err != nil {
			return nil, err
		}
		scrapeMs = append(scrapeMs, ms(time.Since(t)))
	}

	phase("window")
	verify(samples, refs)
	phase("check")
	res.samples = samples
	clientMetrics(res, samples)
	// What only an HTTP client sees: the share of its latency the server
	// does not account for, and (open loop) how late the generator ran.
	var overhead, late []float64
	for _, s := range samples {
		if s.OK {
			overhead = append(overhead, s.EndMs-s.StartMs-s.WaitMs-s.WallMs)
			late = append(late, s.StartMs-s.DueMs)
		}
	}
	res.setQ("http.overhead_ms_p50", overhead, 0.50)
	if w.Open {
		res.setQ("client.late_p95_ms", late, 0.95)
	}
	if ok := float64(res.Attempted - res.Failed); ok > 0 {
		res.set("cpu_ms_per_query", (cpu1-cpu0)*1000/ok)
	}
	res.set("runtime.rss_peak_mb", peak)
	res.setMedian("metrics.scrape_ms_p50", scrapeMs)
	scrapeMetrics(res, before, after)
	return res, nil
}

// phaseTimer returns a function that prints how long the phase just
// ended took — where a run's wall time goes, for whoever has to fit it
// into a time budget.
func phaseTimer() func(name string) {
	last := time.Now()
	return func(name string) {
		fmt.Printf("  [%s %.1f s]\n", name, time.Since(last).Seconds())
		last = time.Now()
	}
}

func scrape(hc *http.Client, base string) (exposition, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return parseExposition(string(body)), nil
}

// clientMetrics derives what any client, HTTP or in-process, can know.
func clientMetrics(res *runResult, samples []sample) {
	res.Attempted = len(samples)
	var lat, modeled, ends []float64
	byClass := map[workload.Class][]float64{}
	var makespan float64
	for _, s := range samples {
		if !s.OK {
			res.Failed++
			res.Failures = append(res.Failures, s.Stmt+": "+s.Err)
			continue
		}
		lat = append(lat, s.LatencyMs)
		byClass[workload.Class(s.Class)] = append(byClass[workload.Class(s.Class)], s.LatencyMs)
		modeled = append(modeled, s.ModeledMs)
		ends = append(ends, s.EndMs)
		if s.EndMs > makespan {
			makespan = s.EndMs
		}
	}
	if len(lat) == 0 {
		return
	}
	res.set("qps", float64(len(lat))/(makespan/1000))
	res.N["qps"] = len(lat)
	res.setQ("lat_p50_ms", lat, 0.50)
	res.setQ("lat_p95_ms", lat, 0.95)
	res.setQ("client.lat_p99_ms", lat, 0.99)
	res.setQ("client.lat_simple_p50_ms", byClass[workload.Simple], 0.50)
	res.setQ("client.lat_intermediate_p50_ms", byClass[workload.Intermediate], 0.50)
	res.setQ("client.lat_complex_p50_ms", byClass[workload.Complex], 0.50)
	res.set("modeled_ms_per_query", mean(modeled))

	// Throughput of the last third of the window over the first third:
	// below 1 the server slowed down as its heap and span store grew.
	sort.Float64s(ends)
	third := makespan / 3
	first := sort.SearchFloat64s(ends, third)
	last := len(ends) - sort.SearchFloat64s(ends, 2*third)
	if first > 0 {
		res.set("client.qps_last_over_first", float64(last)/float64(first))
	}
}

// scrapeMetrics derives the per-layer ledgers from two scrapes of the
// program's own exposition. Whatever a scrape lacks is left unset and
// reported absent. It serves bluserve's /metrics and the engine-only
// registry the paper_serial child renders alike.
func scrapeMetrics(res *runResult, before, after exposition) {
	d := func(family string, labels ...string) (float64, bool) {
		return delta(before, after, family, labels...)
	}
	// per sets name = Δfamily·scale / Δdenominator when both exist.
	ratio := func(name string, num float64, okN bool, den float64, okD bool, scale float64) {
		if okN && okD && den > 0 {
			res.set(name, num*scale/den)
		}
	}
	// Queries the engine ran in the window: every served or serial
	// query is exactly one monitor execution.
	q, okQ := d("blu_query_executions_total")
	per := func(name, family string, scale float64, labels ...string) {
		v, ok := d(family, labels...)
		ratio(name, v, ok, q, okQ, scale)
	}

	waitSum, ok1 := d("blu_serve_wait_seconds_sum")
	waitN, ok2 := d("blu_serve_wait_seconds_count")
	ratio("serve.queue_wait_ms_mean", waitSum, ok1, waitN, ok2, 1000)
	shed, ok1 := d("blu_serve_queries_total", `outcome="shed"`)
	sub, ok2 := d("blu_serve_submitted_total")
	ratio("serve.shed_ratio", shed, ok1, sub, ok2, 1)

	for phase, m := range map[string]struct {
		name  string
		scale float64
	}{
		"queue_wait": {"prof.queue_wait_ms_per_query", 1e3},
		"admission":  {"prof.admission_us_per_query", 1e6},
		"parse":      {"prof.parse_us_per_query", 1e6},
		"plan":       {"prof.plan_us_per_query", 1e6},
		"exec":       {"prof.exec_ms_per_query", 1e3},
		"serialize":  {"prof.serialize_us_per_query", 1e6},
	} {
		per(m.name, "blu_prof_wall_seconds_total", m.scale, `phase="`+phase+`"`)
	}
	if v, ok := d("blu_prof_capture_cpu_seconds_total"); ok {
		res.set("prof.capture_cpu_s", v)
	}

	gpuDec, ok1 := d("blu_optimizer_decisions_total", `decision="gpu"`)
	allDec, ok2 := d("blu_optimizer_decisions_total")
	ratio("optimizer.gpu_decision_ratio", gpuDec, ok1, allDec, ok2, 1)

	per("evaluator.rows_per_query", "blu_evaluator_rows_total", 1)
	per("evaluator.modeled_ms_per_query", "blu_evaluator_time_seconds_total", 1e3)
	per("gpu.kernels_per_query", "blu_kernel_executions_total", 1)
	per("gpu.kernel_modeled_ms_per_query", "blu_kernel_time_seconds_total", 1e3)
	per("gpu.h2d_bytes_per_query", "blu_transfer_bytes_total", 1, `direction="h2d"`)
	per("gpu.d2h_bytes_per_query", "blu_transfer_bytes_total", 1, `direction="d2h"`)
	per("gpu.transfer_modeled_ms_per_query", "blu_transfer_time_seconds_total", 1e3)
	resFail, ok1 := d("blu_reservations_total", `result="fail"`)
	resAll, ok2 := d("blu_reservations_total")
	ratio("gpu.reservation_fail_ratio", resFail, ok1, resAll, ok2, 1)
	per("sched.placements_per_query", "blu_sched_placements_total", 1)
	placeFail, ok1 := d("blu_sched_placements_total", `result="fail"`)
	placeAll, ok2 := d("blu_sched_placements_total")
	ratio("sched.place_fail_ratio", placeFail, ok1, placeAll, ok2, 1)
	per("fusion.chains_per_query", "blu_fused_chains_total", 1)
	per("fusion.fill_bytes_per_query", "blu_fused_fill_bytes_total", 1)
	saved, ok1 := d("blu_transfer_saved_bytes_total")
	h2d, ok2 := d("blu_transfer_bytes_total", `direction="h2d"`)
	ratio("fusion.saved_bytes_ratio", saved, ok1 && ok2, saved+h2d, true, 1)

	per("trace.spans_per_query", "blu_trace_spans", 1)
	if v, ok := after.sum("blu_trace_spans"); ok {
		res.set("trace.spans_held_end", v)
	}
	obsWall, ok1 := d("blu_obsd_scrape_wall_seconds_total")
	obsN, ok2 := d("blu_obsd_scrapes_total")
	ratio("obsd.scrape_wall_ms", obsWall, ok1, obsN, ok2, 1e3)
	per("runtime.gc_cycles_per_kquery", "blu_go_gc_cycles_total", 1e3)
	if v, ok := after.sum("blu_go_heap_objects_bytes"); ok {
		res.set("runtime.heap_mb_end", v/(1<<20))
	}
}
