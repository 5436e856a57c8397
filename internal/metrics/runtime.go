package metrics

import (
	"math"
	rtm "runtime/metrics"

	"blugpu/internal/vtime"
)

// RuntimeHist is a cumulative snapshot of one runtime/metrics
// Float64Histogram: ascending bucket bounds in seconds (the +Inf
// bucket is folded into Count — the exposition synthesizes +Inf), the
// total observation count, and a midpoint-approximated sum (the
// runtime does not track exact sums; the approximation is good to one
// bucket width and only feeds the _sum series).
type RuntimeHist struct {
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// RuntimeStats is one sample of Go runtime telemetry: the live
// observability the modeled engine cannot fake. Sampled per scrape so
// /metrics reflects the process serving it.
type RuntimeStats struct {
	Goroutines   uint64 // /sched/goroutines:goroutines
	HeapBytes    uint64 // /memory/classes/heap/objects:bytes (live + dead, pre-GC)
	TotalBytes   uint64 // /memory/classes/total:bytes (all runtime-managed memory)
	GCCycles     uint64 // /gc/cycles/total:gc-cycles
	GCPause      RuntimeHist
	SchedLatency RuntimeHist
}

// gcPauseNames lists the GC stop-the-world pause metric under its
// current name first, then the pre-1.22 spelling as a fallback.
var gcPauseNames = []string{"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds"}

// SampleRuntime reads the runtime/metrics surface into a RuntimeStats.
// Metrics the running toolchain does not export are left zero.
func SampleRuntime() *RuntimeStats {
	rt := &RuntimeStats{}
	samples := []rtm.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/total:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/latencies:seconds"},
	}
	rtm.Read(samples)
	if samples[0].Value.Kind() == rtm.KindUint64 {
		rt.Goroutines = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == rtm.KindUint64 {
		rt.HeapBytes = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == rtm.KindUint64 {
		rt.TotalBytes = samples[2].Value.Uint64()
	}
	if samples[3].Value.Kind() == rtm.KindUint64 {
		rt.GCCycles = samples[3].Value.Uint64()
	}
	if samples[4].Value.Kind() == rtm.KindFloat64Histogram {
		rt.SchedLatency = convertRuntimeHist(samples[4].Value.Float64Histogram())
	}
	for _, name := range gcPauseNames {
		pause := []rtm.Sample{{Name: name}}
		rtm.Read(pause)
		if pause[0].Value.Kind() == rtm.KindFloat64Histogram {
			rt.GCPause = convertRuntimeHist(pause[0].Value.Float64Histogram())
			break
		}
	}
	return rt
}

// convertRuntimeHist turns a runtime Float64Histogram (per-bucket
// counts between Buckets[i] and Buckets[i+1], possibly ±Inf at the
// edges) into the cumulative form the registry takes. Empty buckets
// are dropped to keep the exposition compact — the runtime's latency
// histograms carry hundreds of mostly-empty buckets.
func convertRuntimeHist(h *rtm.Float64Histogram) RuntimeHist {
	var out RuntimeHist
	if h == nil {
		return out
	}
	var cum uint64
	for i, n := range h.Counts {
		cum += n
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if !math.IsInf(hi, 1) {
			out.Buckets = append(out.Buckets, Bucket{UpperBound: vtime.Duration(hi), CumCount: cum})
		}
		// Midpoint sum approximation; unbounded edges contribute their
		// finite bound.
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		out.Sum += mid * float64(n)
	}
	out.Count = cum
	return out
}

// collectRuntime emits the blu_go_* family from one runtime sample.
func collectRuntime(r *Registry, rt *RuntimeStats) {
	r.Gauge("blu_go_goroutines", "Live goroutines in the serving process.").With().Set(float64(rt.Goroutines))
	r.Gauge("blu_go_heap_objects_bytes", "Bytes of heap occupied by objects (live plus not-yet-swept).").With().Set(float64(rt.HeapBytes))
	r.Gauge("blu_go_memory_total_bytes", "All memory mapped by the Go runtime.").With().Set(float64(rt.TotalBytes))
	r.Counter("blu_go_gc_cycles_total", "Completed GC cycles.").With().AddUint(rt.GCCycles)
	if rt.GCPause.Count > 0 {
		r.Histogram("blu_go_gc_pause_seconds", "GC stop-the-world pause distribution (sum is midpoint-approximated).").
			With().SetCumulative(rt.GCPause.Buckets, rt.GCPause.Sum, rt.GCPause.Count)
	}
	if rt.SchedLatency.Count > 0 {
		r.Histogram("blu_go_sched_latency_seconds", "Goroutine scheduling latency: time runnable before running (sum is midpoint-approximated).").
			With().SetCumulative(rt.SchedLatency.Buckets, rt.SchedLatency.Sum, rt.SchedLatency.Count)
	}
}
