package metrics

import (
	"context"
	"strconv"

	"blugpu/internal/engine"
	"blugpu/internal/explain"
	"blugpu/internal/gpu"
	"blugpu/internal/monitor"
	"blugpu/internal/prof"
	"blugpu/internal/sched"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// Sources names the live objects one scrape snapshots. Monitor is
// required; the rest are optional (nil/empty is skipped). Explain, when
// set, backs the /debug/explain endpoint: it runs a query and returns
// its EXPLAIN ANALYZE decision audit.
type Sources struct {
	Monitor    *monitor.Monitor
	Sched      *sched.Scheduler
	Devices    []*gpu.Device
	Tracer     *trace.Tracer
	GPUEnabled bool
	Explain    func(sql string) (*explain.Report, error)
	// Admission, when set, snapshots the serving layer's admission state
	// per scrape (queue depth, outcome counters, per-class waits).
	Admission func() *AdmissionSnapshot
	// Runtime, when set, samples Go runtime telemetry per scrape
	// (goroutines, heap, GC pauses, scheduling latency) into the
	// blu_go_* family. Wire SampleRuntime for live processes; tests
	// inject fixed stats for golden-locked exposition.
	Runtime func() *RuntimeStats
	// Prof, when set, exposes per-(class, phase) resource attribution
	// as the blu_prof_* family.
	Prof *prof.Accountant
	// Obs, when set, snapshots the embedded time-series store and its
	// alert engine (blu_obsd_* self-accounting, blu_alerts_* states).
	// A firing severity-page alert also flips /healthz to unhealthy.
	Obs func() *ObsSnapshot
}

// EngineLike is the slice of the engine API the metrics layer needs;
// *engine.Engine satisfies it.
type EngineLike interface {
	Monitor() *monitor.Monitor
	Scheduler() *sched.Scheduler
	Devices() []*gpu.Device
	Tracer() *trace.Tracer
	GPUEnabled() bool
	ExplainAnalyzeNamedCtx(ctx context.Context, name, sql string, attrs ...trace.Attr) (*explain.Report, *engine.Result, error)
}

// SourcesFromEngine adapts an engine into the scrape-time source
// function AdminMux and Collect consume. Go runtime telemetry is wired
// by default: every consumer of an engine-backed scrape (the shell's
// \metrics, blubench -metrics-out, the admin mux) gets the blu_go_*
// family without extra plumbing. The blu_slo_* family still needs an
// Admission source — it is a property of the serving layer, which a
// bare engine does not have.
func SourcesFromEngine(e EngineLike) func() Sources {
	explainQuery := func(sql string) (*explain.Report, error) {
		rep, _, err := e.ExplainAnalyzeNamedCtx(context.Background(), "", sql)
		return rep, err
	}
	return func() Sources {
		return Sources{
			Monitor:    e.Monitor(),
			Sched:      e.Scheduler(),
			Devices:    e.Devices(),
			Tracer:     e.Tracer(),
			GPUEnabled: e.GPUEnabled(),
			Explain:    explainQuery,
			Runtime:    SampleRuntime,
		}
	}
}

// Collect snapshots the sources into a fresh registry. Every scrape
// builds a new registry, so the exposition is a pure function of the
// sources' state at scrape time.
func Collect(src Sources) *Registry {
	r := NewRegistry()
	if src.Monitor != nil {
		collectMonitor(r, src.Monitor)
	}
	var now vtime.Time
	if src.Sched != nil {
		collectSched(r, src.Sched)
		now = src.Sched.Now()
	}
	collectDevices(r, src.Devices, now)
	if src.Tracer != nil {
		collectTracer(r, src.Tracer)
	}
	if src.Admission != nil {
		if snap := src.Admission(); snap != nil {
			collectAdmission(r, snap)
		}
	}
	if src.Runtime != nil {
		if rt := src.Runtime(); rt != nil {
			collectRuntime(r, rt)
		}
	}
	if src.Prof != nil {
		collectProf(r, src.Prof)
	}
	if src.Obs != nil {
		if o := src.Obs(); o != nil {
			collectObs(r, o)
		}
	}
	enabled := 0.0
	if src.GPUEnabled {
		enabled = 1
	}
	r.Gauge("blu_gpu_enabled", "Whether GPU offload is currently enabled (1) or the engine is CPU-only (0).").With().Set(enabled)
	return r
}

func collectMonitor(r *Registry, m *monitor.Monitor) {
	kernExec := r.Counter("blu_kernel_executions_total", "Kernel executions by kernel name.")
	kernTime := r.Counter("blu_kernel_time_seconds_total", "Modeled device time by kernel name.")
	kernLat := r.Histogram("blu_kernel_latency_seconds", "Modeled kernel latency distribution by kernel name.")
	for _, k := range m.Kernels() {
		kernExec.With(L("kernel", k.Name)).AddUint(k.Count)
		kernTime.With(L("kernel", k.Name)).Add(k.Total.Seconds())
		kernLat.With(L("kernel", k.Name)).SetCumulative(k.Buckets, k.Total.Seconds(), k.Count)
	}

	evalExec := r.Counter("blu_evaluator_executions_total", "Host-side evaluator executions by evaluator name.")
	evalRows := r.Counter("blu_evaluator_rows_total", "Rows processed by host-side evaluators.")
	evalTime := r.Counter("blu_evaluator_time_seconds_total", "Modeled host time by evaluator name.")
	evalLat := r.Histogram("blu_evaluator_latency_seconds", "Modeled evaluator latency distribution by evaluator name.")
	for _, e := range m.Evaluators() {
		evalExec.With(L("evaluator", e.Name)).AddUint(e.Count)
		if e.Rows > 0 {
			evalRows.With(L("evaluator", e.Name)).Add(float64(e.Rows))
		}
		evalTime.With(L("evaluator", e.Name)).Add(e.Total.Seconds())
		evalLat.With(L("evaluator", e.Name)).SetCumulative(e.Buckets, e.Total.Seconds(), e.Count)
	}

	qExec := r.Counter("blu_query_executions_total", "Completed query executions by query name.")
	qGPU := r.Counter("blu_query_gpu_executions_total", "Query executions that took a device path, by query name.")
	qLat := r.Histogram("blu_query_latency_seconds", "Modeled end-to-end query latency distribution by query name.")
	for _, q := range m.Queries() {
		qExec.With(L("query", q.Name)).AddUint(q.Count)
		qGPU.With(L("query", q.Name)).AddUint(q.GPURuns)
		qLat.With(L("query", q.Name)).SetCumulative(q.Buckets, q.Total.Seconds(), q.Count)
	}

	h2d, d2h := m.Transfers()
	trN := r.Counter("blu_transfers_total", "PCIe transfers by direction.")
	trBytes := r.Counter("blu_transfer_bytes_total", "Bytes moved over PCIe by direction.")
	trTime := r.Counter("blu_transfer_time_seconds_total", "Modeled transfer time by direction.")
	trRate := r.Gauge("blu_transfer_throughput_bytes_per_second", "Average modeled transfer throughput by direction.")
	for _, dir := range []struct {
		name string
		st   monitor.TransferStats
	}{{"h2d", h2d}, {"d2h", d2h}} {
		trN.With(L("direction", dir.name)).AddUint(dir.st.Count)
		trBytes.With(L("direction", dir.name)).Add(float64(dir.st.Bytes))
		trTime.With(L("direction", dir.name)).Add(dir.st.Total.Seconds())
		trRate.With(L("direction", dir.name)).Set(dir.st.Throughput())
	}

	ok, fail := m.ReserveCounts()
	res := r.Counter("blu_reservations_total", "Device-memory reservation attempts by result.")
	res.With(L("result", "ok")).AddUint(ok)
	res.With(L("result", "fail")).AddUint(fail)

	faults := r.Counter("blu_faults_injected_total", "Injected GPU faults by operation site.")
	for site, n := range m.FaultCounts() {
		faults.With(L("site", site)).AddUint(n)
	}
	deg := r.Counter("blu_degraded_ops_total", "Degraded operations (same-placement retries, CPU fallbacks) by kind and operation.")
	degFaulted := r.Counter("blu_degraded_ops_faulted_total", "Degraded operations caused by injected faults or device loss.")
	for _, ds := range m.Retries() {
		deg.With(L("kind", "retry"), L("op", ds.Op)).AddUint(ds.Count)
		degFaulted.With(L("kind", "retry"), L("op", ds.Op)).AddUint(ds.Faulted)
	}
	for _, ds := range m.Fallbacks() {
		deg.With(L("kind", "fallback"), L("op", ds.Op)).AddUint(ds.Count)
		degFaulted.With(L("kind", "fallback"), L("op", ds.Op)).AddUint(ds.Faulted)
	}
	dec := r.Counter("blu_optimizer_decisions_total", "Figure-3 optimizer path decisions at group-by execution, by decision and reason.")
	for _, d := range m.Decisions() {
		dec.With(L("decision", d.Decision), L("reason", d.Reason)).AddUint(d.Count)
	}
	if kmv := m.KMVError(); kmv.Count > 0 {
		kmvHist := r.Histogram("blu_kmv_relative_error", "KMV group-count estimator relative error |estimated-actual|/actual, one sample per executed group-by.")
		kmvHist.With().SetCumulative(kmv.Buckets, kmv.Sum, kmv.Count)
	}

	if chains, saved, uploaded := m.FusedStats(); chains > 0 {
		r.Counter("blu_fused_chains_total", "Group-by operator chains executed as fused device pipelines.").With().AddUint(chains)
		r.Counter("blu_transfer_saved_bytes_total", "H2D bytes avoided by fused chains whose input columns were already device-resident.").With().Add(float64(saved))
		r.Counter("blu_fused_fill_bytes_total", "H2D bytes uploaded by fused-chain column-cache fills (investment that later chains save against).").With().Add(float64(uploaded))
	}

	trips, recovers := m.BreakerCounts()
	breaker := r.Counter("blu_breaker_transitions_total", "Circuit-breaker transitions by direction.")
	breaker.With(L("transition", "trip")).AddUint(trips)
	breaker.With(L("transition", "recover")).AddUint(recovers)

	peak := r.Gauge("blu_device_memory_peak_bytes", "Peak sampled device-memory use over the run, by device.")
	samples := r.Gauge("blu_device_memory_samples", "Retained device-memory utilization samples, by device.")
	for _, dev := range m.Devices() {
		series := m.MemSeries(dev)
		var p int64
		for _, s := range series {
			if s.Used > p {
				p = s.Used
			}
		}
		lbl := L("device", strconv.Itoa(dev))
		peak.With(lbl).Set(float64(p))
		samples.With(lbl).Set(float64(len(series)))
	}
}

func collectSched(r *Registry, s *sched.Scheduler) {
	ok, fail := s.PlaceCounts()
	place := r.Counter("blu_sched_placements_total", "Scheduler task placements by result (fail counts terminal failures, not per-device retries).")
	place.With(L("result", "ok")).AddUint(ok)
	place.With(L("result", "fail")).AddUint(fail)

	quarantined := r.Gauge("blu_device_quarantined", "Whether the device's circuit breaker is open (1) or the device takes placements (0).")
	consec := r.Gauge("blu_device_consecutive_failures", "Consecutive failed operations on the device.")
	trips := r.Counter("blu_device_breaker_trips_total", "Circuit-breaker trips by device.")
	recovers := r.Counter("blu_device_breaker_recoveries_total", "Circuit-breaker recoveries by device.")
	outstanding := r.Gauge("blu_device_outstanding_jobs", "Admitted, unfinished kernel calls by device.")
	for _, h := range s.Health() {
		lbl := L("device", strconv.Itoa(h.Device))
		q := 0.0
		if h.Quarantined {
			q = 1
		}
		quarantined.With(lbl).Set(q)
		consec.With(lbl).Set(float64(h.ConsecutiveFails))
		trips.With(lbl).AddUint(h.Trips)
		recovers.With(lbl).AddUint(h.Recoveries)
	}
	for _, snap := range s.Snapshot() {
		outstanding.With(L("device", strconv.Itoa(snap.Device))).Set(float64(snap.Outstanding))
	}
}

func collectDevices(r *Registry, devices []*gpu.Device, now vtime.Time) {
	if len(devices) == 0 {
		return
	}
	used := r.Gauge("blu_device_memory_used_bytes", "Allocated plus reserved device memory, by device.")
	total := r.Gauge("blu_device_memory_total_bytes", "Device-memory capacity, by device.")
	kernels := r.Counter("blu_device_kernels_total", "Kernel launches by device.")
	transfers := r.Counter("blu_device_transfers_total", "PCIe transfers by device.")
	busy := r.Counter("blu_device_busy_seconds_total", "Modeled device busy time by device and event kind (kernel, h2d, d2h).")
	ratio := r.Gauge("blu_device_busy_ratio", "Modeled busy time over the virtual clock; concurrent kernels on one device can push this above 1.")
	reserved := r.Gauge("blu_device_reserved_bytes", "Current reservation occupancy (reserved plus allocated device memory), by device.")
	reservedPeak := r.Gauge("blu_device_reserved_peak_bytes", "High-water reservation occupancy over the device's lifetime, by device.")
	for _, d := range devices {
		lbl := L("device", strconv.Itoa(d.ID()))
		c := d.Counters()
		used.With(lbl).Set(float64(c.MemUsed))
		total.With(lbl).Set(float64(d.TotalMemory()))
		kernels.With(lbl).AddUint(c.Kernels)
		transfers.With(lbl).AddUint(c.Transfers)

		u := d.Util()
		busy.With(lbl, L("kind", "kernel")).Add(u.Kernel.Seconds())
		busy.With(lbl, L("kind", "h2d")).Add(u.H2D.Seconds())
		busy.With(lbl, L("kind", "d2h")).Add(u.D2H.Seconds())
		if now > 0 {
			ratio.With(lbl).Set(u.Busy().Seconds() / float64(now))
		} else {
			ratio.With(lbl).Set(0)
		}
		reserved.With(lbl).Set(float64(u.ReservedBytes))
		reservedPeak.With(lbl).Set(float64(u.ReservedPeakBytes))
	}
}

func collectTracer(r *Registry, t *trace.Tracer) {
	r.Counter("blu_trace_queries_total", "Query root spans started by the attached tracer.").With().AddUint(t.Queries())
	r.Gauge("blu_trace_spans", "Spans currently held by the attached tracer.").With().Set(float64(t.Held()))
	r.Counter("blu_trace_orphans_total", "Device events that arrived without a live parent span.").With().AddUint(t.Orphans())
}
