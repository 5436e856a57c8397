package main

import (
	"bytes"
	"encoding/json"

	"blugpu/internal/workload"
)

// The server under test is always started like this (plus -addr); every
// other flag keeps its default so the tracer, the prof accountant and
// captor, and obsd are on as in production. The generator seed is fixed:
// the benchmark's own -seed drives only statement order and arrivals.
const (
	dataSeed   = 20160626
	fullSF     = 0.1  // Figure-3 decision separates the classes here
	quickSF    = 0.02 // -quick
	devices    = 2
	degree     = 24
	clients    = 2   // keep-alive connections; never more than nproc
	openQPS    = 30  // bd_mix_open offered rate, ≈45 % of closed-loop capacity
	runSeconds = 15  // BENCHMARK.json run_seconds
	setupReps  = 3   // set-ups per end-to-end run; setup_s is their median
	hardLimit  = 120 // seconds; one workload's wall cap
)

// workloadDef is one traffic mix.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Served runs drive a fresh bluserve over HTTP; the other runs the
	// engine in a fresh child of this binary.
	Served bool `json:"-"`
	Open   bool `json:"-"`
	// Gating workloads are the ones BENCHMARK.json lists: their spread
	// over ten seeds stays inside every end-to-end bound. The others are
	// run and printed by `go run ./benchmark` but decide nothing.
	Gating bool                    `json:"gating"`
	Stmts  func() []workload.Query `json:"-"`
}

var workloads = []workloadDef{
	{
		Name:   "simple_closed",
		Why:    "70 BD simple statements, closed loop, 2 clients: CPU-branch exec of a few ms, so per-request fixed cost (http, admission, parse, plan, serialize, sinks) has its largest share",
		Served: true,
		Gating: true,
		Stmts:  func() []workload.Query { return workload.Filter(workload.BDInsights(), workload.Simple) },
	},
	{
		Name:   "rolap_closed",
		Why:    "46 Cognos ROLAP statements, closed loop, 2 clients: engine exec over evaluator/groupby/bsort/gpu/sched/fusion is >95 % of time; control for front-end changes, target for device-model and heap ones",
		Served: true,
		Gating: true,
		Stmts:  workload.CognosROLAP,
	},
	{
		Name:   "bd_mix_closed",
		Why:    "100 BD statements in the paper's 70/25/5 mix, closed loop, 2 clients: a simple query on one connection contends with an intermediate or complex one on the other, CPU and GPU branches interleave",
		Served: true,
		Gating: true,
		Stmts:  workload.BDInsights,
	},
	{
		Name:   "paper_serial",
		Why:    "all 146 statements in-process, one client, no serve/HTTP/sinks: cold pass, warm GPU-on laps, GPU-off pass; no contention, so serving changes predict no change and simulated-time columns are exact",
		Gating: true,
		Stmts: func() []workload.Query {
			return append(workload.BDInsights(), workload.CognosROLAP()...)
		},
	},
	{
		// Not gating: at 10–15 s its latency percentiles spread 20–45 %
		// between identical runs of the same seed (README, "Why
		// bd_mix_open does not gate").
		Name:   "bd_mix_open",
		Why:    "the same mix, open loop at 30 qps with seeded exponential arrivals, timed from the due time: simple queries queue behind complex ones, so exec savings move p95 most",
		Served: true,
		Open:   true,
		Stmts:  workload.BDInsights,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef is one catalogued metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 for per-layer
// metrics, which never gate). Time says which clock the number is read
// from: "host" wall/CPU time of this machine, "sim" simulated
// K40/POWER8 time from the cost model, or "count".
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Time   string  `json:"time"`
	// Moves names the end-to-end metrics (and workloads) this layer
	// metric is expected to move; for end-to-end metrics, what it is.
	// BENCHMARK.json has no room for it, so it travels in every -out
	// result file, beside the numbers it explains.
	Moves string `json:"moves"`
}

// endToEnd are the metrics a client of the system sees. fail_ratio from
// the issue is not here: the run contract carries it as
// attempted/failed/correct, and a metric whose healthy value is 0 has
// no relative bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "host", "process start → first 200 from /healthz (generate + register + warm-up); paper_serial: child start → engine registered; median of 3 set-ups"},
	{"qps", "1/s", "higher", 0.25, "host", "ok ops / makespan of the measured laps"},
	{"lat_p50_ms", "ms", "lower", 0.25, "host", "nearest-rank median client latency (open loop: from the due time)"},
	{"lat_p95_ms", "ms", "lower", 0.25, "host", "nearest-rank p95 client latency; n is printed beside it"},
	{"cpu_ms_per_query", "ms", "lower", 0.25, "host", "program user+sys CPU over the window / ok ops"},
	{"rss_mean_mb", "MB", "lower", 0.15, "host", "program VmRSS sampled every 100 ms, mean over the window"},
	{"modeled_ms_per_query", "sim_ms", "lower", 0.01, "sim", "mean response modeled_ms — simulated K40/POWER8 time, not host time"},
}

const (
	frontEnd = "qps, lat_p50_ms, cpu_ms_per_query on simple_closed; no change predicted on rolap_closed and paper_serial"
	execPath = "qps, lat_p50_ms, cpu_ms_per_query on rolap_closed and paper_serial; lat_p95_ms on bd_mix_open (queueing amplifies it); little on simple_closed"
	simOnly  = "modeled_ms_per_query everywhere (a simulator-only speed-up must leave it, and every count, identical)"
	heap     = "rss_mean_mb everywhere; through GC, qps and client.qps_last_over_first on rolap_closed"
	coldOnly = "engine.modeled_cold_ms_per_query on paper_serial only"
	info     = "diagnostic: qualifies the other numbers, moves none"
)

// perLayer are single-layer metrics, named <module>.<metric>. A metric
// a workload cannot produce (serve/prof families on paper_serial,
// paper-arm metrics on served runs) is printed as 0 and listed as
// absent in the human-readable report.
var perLayer = []metricDef{
	// From served runs: client timings, response fields, /metrics deltas.
	{"client.lat_p99_ms", "ms", "lower", 0, "host", execPath},
	{"client.lat_simple_p50_ms", "ms", "lower", 0, "host", frontEnd},
	{"client.lat_intermediate_p50_ms", "ms", "lower", 0, "host", execPath},
	{"client.lat_complex_p50_ms", "ms", "lower", 0, "host", execPath},
	{"client.late_p95_ms", "ms", "lower", 0, "host", "above a few ms the generator, not the server, set bd_mix_open latency"},
	{"client.qps_last_over_first", "ratio", "higher", 0, "host", heap},
	{"http.overhead_ms_p50", "ms", "lower", 0, "host", frontEnd},
	{"serve.queue_wait_ms_mean", "ms", "lower", 0, "host", "lat_p95_ms on bd_mix_open"},
	{"serve.shed_ratio", "ratio", "lower", 0, "count", "failed ops on every served workload (must stay 0)"},
	{"prof.queue_wait_ms_per_query", "ms", "lower", 0, "host", "lat_p95_ms on bd_mix_open"},
	{"prof.admission_us_per_query", "us", "lower", 0, "host", frontEnd},
	{"prof.parse_us_per_query", "us", "lower", 0, "host", frontEnd},
	{"prof.plan_us_per_query", "us", "lower", 0, "host", frontEnd},
	{"prof.exec_ms_per_query", "ms", "lower", 0, "host", execPath},
	{"prof.serialize_us_per_query", "us", "lower", 0, "host", frontEnd},
	{"prof.capture_cpu_s", "s", "lower", 0, "host", "cpu_ms_per_query on every served workload"},
	{"optimizer.gpu_decision_ratio", "ratio", "higher", 0, "count", simOnly},
	{"evaluator.rows_per_query", "count", "lower", 0, "count", execPath},
	{"evaluator.modeled_ms_per_query", "sim_ms", "lower", 0, "sim", simOnly},
	{"gpu.kernels_per_query", "count", "lower", 0, "count", execPath},
	{"gpu.kernel_modeled_ms_per_query", "sim_ms", "lower", 0, "sim", simOnly},
	{"gpu.h2d_bytes_per_query", "B", "lower", 0, "count", execPath},
	{"gpu.d2h_bytes_per_query", "B", "lower", 0, "count", execPath},
	{"gpu.transfer_modeled_ms_per_query", "sim_ms", "lower", 0, "sim", simOnly},
	{"gpu.reservation_fail_ratio", "ratio", "lower", 0, "count", execPath},
	{"sched.placements_per_query", "count", "lower", 0, "count", execPath},
	{"sched.place_fail_ratio", "ratio", "lower", 0, "count", execPath},
	{"fusion.chains_per_query", "count", "higher", 0, "count", execPath},
	{"fusion.fill_bytes_per_query", "B", "lower", 0, "count", coldOnly},
	{"fusion.saved_bytes_ratio", "ratio", "higher", 0, "count", simOnly},
	{"trace.spans_per_query", "count", "lower", 0, "count", heap},
	{"trace.spans_held_end", "count", "lower", 0, "count", heap},
	{"obsd.scrape_wall_ms", "ms", "lower", 0, "host", "cpu_ms_per_query on every served workload"},
	{"metrics.scrape_ms_p50", "ms", "lower", 0, "host", "cpu_ms_per_query on every served workload (scrapers pay it)"},
	{"runtime.gc_cycles_per_kquery", "count", "lower", 0, "count", heap},
	{"runtime.heap_mb_end", "MB", "lower", 0, "host", heap},
	{"runtime.rss_peak_mb", "MB", "lower", 0, "host", heap},

	// From the traced run: the benchmark's own spans around public calls.
	{"sqlparse.parse_us", "us", "lower", 0, "host", frontEnd},
	{"sqlparse.allocs", "count", "lower", 0, "count", frontEnd},
	{"plan.build_us", "us", "lower", 0, "host", frontEnd},
	{"plan.allocs", "count", "lower", 0, "count", frontEnd},
	{"engine.execute_ms", "ms", "lower", 0, "host", execPath},
	{"engine.allocs", "count", "lower", 0, "count", execPath},
	{"engine.exec_gpu_ms", "ms", "lower", 0, "host", execPath},
	{"engine.exec_host_ms", "ms", "lower", 0, "host", execPath},
	{"engine.exec_gather_ms", "ms", "lower", 0, "host", execPath},
	{"engine.exec_other_ms", "ms", "lower", 0, "host", execPath},
	{"serve.self_us", "us", "lower", 0, "host", frontEnd},
	{"serve.allocs", "count", "lower", 0, "count", frontEnd},
	{"serve.serialize_us", "us", "lower", 0, "host", frontEnd},
	{"http.self_us", "us", "lower", 0, "host", frontEnd},
	{"http.allocs", "count", "lower", 0, "count", frontEnd},
	{"sinks.tax_us", "us", "lower", 0, "host", frontEnd},
	{"sinks.allocs", "count", "lower", 0, "count", frontEnd},
	{"bench.span_overhead_us", "us", "lower", 0, "host", info},
	{"bench.trace_coverage", "ratio", "higher", 0, "host", info},

	// From paper_serial: the paper's Fig. 5–7 arms.
	{"engine.modeled_off_ms_per_query", "sim_ms", "lower", 0, "sim", simOnly},
	{"engine.modeled_gain", "ratio", "higher", 0, "sim", simOnly},
	{"engine.modeled_cold_ms_per_query", "sim_ms", "lower", 0, "sim", coldOnly},
	{"engine.gpu_used_ratio", "ratio", "higher", 0, "count", simOnly},
	{"engine.sim_wall_per_modeled", "ratio", "lower", 0, "host", execPath},
	{"gpu.h2d_bytes_cold", "B", "lower", 0, "count", coldOnly},
	{"gpu.h2d_bytes_warm", "B", "lower", 0, "count", execPath},
}

// specJSON renders BENCHMARK.json from the catalogue, so the file and
// the program cannot name different metrics.
func specJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if w.Gating {
			spec.Workloads = append(spec.Workloads, wl{w.Name, w.Why})
		}
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep ">95 %" readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		panic(err) // static data; cannot fail
	}
	return buf.Bytes()
}
