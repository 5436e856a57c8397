// Package monitor implements the engine-integrated GPU performance
// monitoring of paper Section 2.3.
//
// Off-the-shelf tools (nvidia-smi) cannot attribute device time to the
// query operators of a host application, so the paper's prototype grew its
// own monitoring, folded into the engine's existing monitor. This package
// plays that role: it is the gpu.EventSink for every device, aggregates
// kernel and transfer timings by name, tracks evaluator timings on the
// host side, and keeps log-scale latency histograms (p50/p95/p99 per
// kernel, per evaluator and per query). Device memory is not recorded
// here: each gpu.Device holds its own occupancy and high-water mark.
package monitor

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"blugpu/internal/gpu"
	"blugpu/internal/vtime"
)

// KernelStats aggregates executions of one named kernel.
type KernelStats struct {
	Name  string
	Count uint64
	Total vtime.Duration
	Max   vtime.Duration
	// P50/P95/P99 are log-scale-histogram latency quantiles.
	P50, P95, P99 vtime.Duration
	// Buckets is the cumulative latency distribution (see Hist.Buckets).
	Buckets []HistBucket
}

// TransferStats aggregates one transfer direction.
type TransferStats struct {
	Count uint64
	Bytes int64
	Total vtime.Duration
}

// Throughput returns bytes per virtual-time second, 0 when no time was
// spent.
func (t TransferStats) Throughput() float64 {
	if t.Total <= 0 {
		return 0
	}
	return float64(t.Bytes) / t.Total.Seconds()
}

// EvalStats aggregates one host-side evaluator (LCOG, HASH, MEMCPY, ...).
type EvalStats struct {
	Name          string
	Count         uint64
	Rows          int64
	Total         vtime.Duration
	Max           vtime.Duration
	P50, P95, P99 vtime.Duration
	Buckets       []HistBucket
}

// QueryStats is the per-query rollup: every execution recorded under
// one query name (workload id or auto-assigned q<N>).
type QueryStats struct {
	Name          string
	Count         uint64
	Total         vtime.Duration
	Max           vtime.Duration
	P50, P95, P99 vtime.Duration
	Buckets       []HistBucket
	// GPURuns counts the executions that took a device path.
	GPURuns uint64
}

type kernelAgg struct {
	name string
	hist Hist
}

type evalAgg struct {
	name string
	rows int64
	hist Hist
}

type queryAgg struct {
	name    string
	hist    Hist
	gpuRuns uint64
}

// Monitor collects all performance telemetry. Safe for concurrent use.
type Monitor struct {
	mu           sync.Mutex
	kernels      map[string]*kernelAgg
	h2d, d2h     TransferStats
	evals        map[string]*evalAgg
	queries      map[string]*queryAgg
	queryOrder   []string
	reserves     uint64
	reserveFails uint64
	degrade      degradeState
	// decisions counts optimizer outcomes by (decision, reason); kmvErr
	// is the KMV estimator relative-error distribution (see estimator.go).
	decisions map[[2]string]uint64
	kmvErr    Hist
	// fusedChains / fusedSaved / fusedUploaded count completed fused
	// device chains and their H2D bytes avoided (cache hits) vs moved
	// (cache fills).
	fusedChains   uint64
	fusedSaved    int64
	fusedUploaded int64
}

// New returns an empty monitor.
func New() *Monitor {
	return &Monitor{
		kernels: make(map[string]*kernelAgg),
		evals:   make(map[string]*evalAgg),
		queries: make(map[string]*queryAgg),
		degrade: newDegradeState(),
	}
}

// RecordGPUEvent implements gpu.EventSink.
func (m *Monitor) RecordGPUEvent(e gpu.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch e.Kind {
	case gpu.EventKernel:
		ks := m.kernels[e.Name]
		if ks == nil {
			ks = &kernelAgg{name: e.Name}
			m.kernels[e.Name] = ks
		}
		ks.hist.Observe(e.Modeled)
	case gpu.EventTransferH2D:
		m.h2d.Count++
		m.h2d.Bytes += e.Bytes
		m.h2d.Total += e.Modeled
	case gpu.EventTransferD2H:
		m.d2h.Count++
		m.d2h.Bytes += e.Bytes
		m.d2h.Total += e.Modeled
	case gpu.EventReserve:
		m.reserves++
	case gpu.EventReserveFail:
		m.reserveFails++
	case gpu.EventFault:
		m.recordFault(e)
	}
}

// RecordEvaluator accumulates one host-side evaluator execution.
func (m *Monitor) RecordEvaluator(name string, rows int64, d vtime.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	es := m.evals[name]
	if es == nil {
		es = &evalAgg{name: name}
		m.evals[name] = es
	}
	es.rows += rows
	es.hist.Observe(d)
}

// MaxQueryNames caps the distinct query names the monitor keeps a rollup
// row for. A server names every unnamed request uniquely, so without a
// cap the rows — and every scrape that renders them — grow with the
// number of requests ever served.
const MaxQueryNames = 1024

// otherQueries is the rollup row that absorbs executions under names
// first seen after MaxQueryNames distinct ones.
const otherQueries = "_other"

// RecordQuery accumulates one completed query execution under name.
func (m *Monitor) RecordQuery(name string, modeled vtime.Duration, gpuUsed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	qs := m.queries[name]
	if qs == nil && len(m.queries) >= MaxQueryNames {
		name = otherQueries
		qs = m.queries[name]
	}
	if qs == nil {
		qs = &queryAgg{name: name}
		m.queries[name] = qs
		m.queryOrder = append(m.queryOrder, name)
	}
	qs.hist.Observe(modeled)
	if gpuUsed {
		qs.gpuRuns++
	}
}

// RecordFusedChain accumulates one completed fused device chain: saved is
// the H2D bytes avoided because the chain's input columns were already
// device-resident, uploaded the bytes its cache fills actually moved.
func (m *Monitor) RecordFusedChain(saved, uploaded int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fusedChains++
	m.fusedSaved += saved
	m.fusedUploaded += uploaded
}

// FusedStats returns (chains completed, H2D bytes saved, H2D bytes
// uploaded by cache fills) for the fused data path.
func (m *Monitor) FusedStats() (chains uint64, saved, uploaded int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fusedChains, m.fusedSaved, m.fusedUploaded
}

func kernelSnapshot(a *kernelAgg) KernelStats {
	p50, p95, p99 := a.hist.Quantiles()
	return KernelStats{
		Name: a.name, Count: a.hist.Count(), Total: a.hist.Total(),
		Max: a.hist.Max(), P50: p50, P95: p95, P99: p99,
		Buckets: a.hist.Buckets(),
	}
}

// Kernels returns aggregated kernel stats sorted by total time
// descending, ties broken by name so the order is deterministic.
func (m *Monitor) Kernels() []KernelStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]KernelStats, 0, len(m.kernels))
	for _, ks := range m.kernels {
		out = append(out, kernelSnapshot(ks))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Evaluators returns aggregated evaluator stats sorted by total time
// descending, ties broken by name so the order is deterministic.
func (m *Monitor) Evaluators() []EvalStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]EvalStats, 0, len(m.evals))
	for _, es := range m.evals {
		p50, p95, p99 := es.hist.Quantiles()
		out = append(out, EvalStats{
			Name: es.name, Count: es.hist.Count(), Rows: es.rows,
			Total: es.hist.Total(), Max: es.hist.Max(), P50: p50, P95: p95, P99: p99,
			Buckets: es.hist.Buckets(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Queries returns per-query rollups in first-seen order.
func (m *Monitor) Queries() []QueryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]QueryStats, 0, len(m.queryOrder))
	for _, name := range m.queryOrder {
		qs := m.queries[name]
		p50, p95, p99 := qs.hist.Quantiles()
		out = append(out, QueryStats{
			Name: qs.name, Count: qs.hist.Count(), Total: qs.hist.Total(),
			Max: qs.hist.Max(), P50: p50, P95: p95, P99: p99,
			Buckets: qs.hist.Buckets(), GPURuns: qs.gpuRuns,
		})
	}
	return out
}

// Transfers returns (host-to-device, device-to-host) aggregates.
func (m *Monitor) Transfers() (TransferStats, TransferStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.h2d, m.d2h
}

// ReserveCounts returns (successful, failed) device-memory reservations.
func (m *Monitor) ReserveCounts() (uint64, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reserves, m.reserveFails
}

// Reset clears all telemetry.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.kernels = make(map[string]*kernelAgg)
	m.evals = make(map[string]*evalAgg)
	m.queries = make(map[string]*queryAgg)
	m.queryOrder = nil
	m.h2d, m.d2h = TransferStats{}, TransferStats{}
	m.reserves, m.reserveFails = 0, 0
	m.degrade = newDegradeState()
	m.decisions = nil
	m.kmvErr = Hist{}
	m.fusedChains, m.fusedSaved, m.fusedUploaded = 0, 0, 0
}

// Report writes a human-readable summary, the moral equivalent of the
// paper's internal tuning tool output.
func (m *Monitor) Report(w io.Writer) {
	kernels := m.Kernels()
	evals := m.Evaluators()
	queries := m.Queries()
	h2d, d2h := m.Transfers()
	ok, fail := m.ReserveCounts()

	fmt.Fprintf(w, "=== GPU performance monitor ===\n")
	fmt.Fprintf(w, "kernels:\n")
	for _, k := range kernels {
		avg := vtime.Duration(0)
		if k.Count > 0 {
			avg = k.Total / vtime.Duration(float64(k.Count))
		}
		fmt.Fprintf(w, "  %-24s calls=%-6d total=%-12s avg=%-12s p50=%-10s p95=%-10s p99=%-10s max=%s\n",
			k.Name, k.Count, k.Total, avg, k.P50, k.P95, k.P99, k.Max)
	}
	writeDir := func(label string, t TransferStats) {
		fmt.Fprintf(w, "  %s: %d copies, %.1f MB, %s (%.1f MB/s)\n",
			label, t.Count, float64(t.Bytes)/(1<<20), t.Total, t.Throughput()/(1<<20))
	}
	fmt.Fprintf(w, "transfers:\n")
	writeDir("h2d", h2d)
	writeDir("d2h", d2h)
	fmt.Fprintf(w, "reservations: %d ok, %d failed\n", ok, fail)
	if chains, saved, uploaded := m.FusedStats(); chains > 0 {
		fmt.Fprintf(w, "fused chains: %d, %.1f MB transfer saved, %.1f MB uploaded by cache fills\n",
			chains, float64(saved)/(1<<20), float64(uploaded)/(1<<20))
	}
	// Degraded-op counts live in the main table; the robustness section
	// below adds per-op detail only when something actually degraded.
	var retryN, fbN uint64
	for _, ds := range m.Retries() {
		retryN += ds.Count
	}
	for _, ds := range m.Fallbacks() {
		fbN += ds.Count
	}
	trips, _ := m.BreakerCounts()
	fmt.Fprintf(w, "degraded ops: retries=%d cpu-fallbacks=%d faults=%d breaker-trips=%d\n",
		retryN, fbN, m.FaultTotal(), trips)
	if len(evals) > 0 {
		fmt.Fprintf(w, "evaluators:\n")
		for _, e := range evals {
			fmt.Fprintf(w, "  %-24s calls=%-6d rows=%-12d total=%-12s p50=%-10s p95=%-10s p99=%s\n",
				e.Name, e.Count, e.Rows, e.Total, e.P50, e.P95, e.P99)
		}
	}
	if len(queries) > 0 {
		fmt.Fprintf(w, "queries:\n")
		for _, q := range queries {
			fmt.Fprintf(w, "  %-24s runs=%-5d gpu=%-5d total=%-12s p50=%-10s p95=%-10s p99=%-10s max=%s\n",
				q.Name, q.Count, q.GPURuns, q.Total, q.P50, q.P95, q.P99, q.Max)
		}
	}
	m.reportRobustness(w)
}
