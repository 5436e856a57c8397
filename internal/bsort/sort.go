package bsort

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"blugpu/internal/gpu"
	"blugpu/internal/parallel"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// Config controls a hybrid sort.
type Config struct {
	// Model is the cost model (required).
	Model *vtime.CostModel
	// Device runs GPU jobs; nil disables the device path entirely.
	Device DeviceFunc
	// Degree is host-side parallelism for key generation and CPU sorting.
	Degree int
	// GPUThreshold is the minimum job size (rows) worth dispatching to a
	// device; below it, transfer + launch overhead exceeds the gain.
	GPUThreshold int
	// Pinned reports whether the partial key buffer is staged through the
	// registered host segment.
	Pinned bool
	// Partitions > 1 splits the input into that many conflict-free ranges
	// (by leading key byte) before enqueueing, so multiple devices can
	// work without a merge step.
	Partitions int
	// Trace is the parent span for per-job sort spans; the zero value
	// disables them.
	Trace trace.Context
	// TraceBase is the virtual-time offset of the sort's start; job spans
	// lay out sequentially from here (an approximation — CPU and GPU jobs
	// actually drain the queue concurrently).
	TraceBase vtime.Time
}

// DeviceFunc runs one GPU job of demand bytes, under span tc from virtual
// time at, and reports the device that ran it or the error that sends
// the job to the host; the engine's device contract implements it.
type DeviceFunc func(tc trace.Context, at vtime.Time, demand int64, run func(*gpu.Reservation) error) (device int, err error)

// DefaultGPUThreshold is the default CPU/GPU crossover in rows.
const DefaultGPUThreshold = 1 << 16

// Stats reports how a hybrid sort executed.
type Stats struct {
	Rows     int
	Jobs     int
	GPUJobs  int
	CPUJobs  int
	MaxDepth int // deepest key segment consulted
	// Requeues counts duplicate ranges the GPU handed back for the next
	// key depth; Fallbacks counts GPU-eligible jobs that ended up on the
	// host because placement or a device operation failed.
	Requeues  int
	Fallbacks int

	KeyGen  vtime.Duration // host partial-key/payload generation
	CPUTime vtime.Duration // host sorting
	GPUTime vtime.Duration // busiest device: kernels + transfers
	Modeled vtime.Duration // end-to-end: keygen + max(CPU, GPU)
}

type job struct {
	r     Range
	depth int
	// requeued marks a duplicate range the GPU handed back for the next
	// key depth, so its trace span is distinguishable from a fresh job.
	requeued bool
}

// Sort orders the rows of src ascending by their full binary key, ties
// broken by row id, and returns the permutation of row ids. It implements
// the paper's job-queue design: partial keys are generated on the host,
// large jobs go to the GPU radix kernel which reports duplicate ranges
// for requeueing at the next key depth, and small jobs are sorted on the
// host — both paths draining the same queue.
func Sort(src KeySource, cfg Config) ([]int32, Stats, error) {
	if cfg.Model == nil {
		return nil, Stats{}, errors.New("bsort: Config.Model is required")
	}
	cfg.Degree = parallel.Degree(cfg.Degree)
	if cfg.GPUThreshold <= 0 {
		cfg.GPUThreshold = DefaultGPUThreshold
	}
	n := src.NumRows()
	st := Stats{Rows: n}
	if n == 0 {
		return nil, st, nil
	}

	entries := make([]Entry, n)
	parallel.For(n, keygenGrain, cfg.Degree, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			entries[i] = MakeEntry(0, uint32(i))
		}
	})

	var queue []job
	var keygenRows int64
	var cpuWork float64
	gpuBusy := map[int]vtime.Duration{}

	// rekey regenerates the partial keys for a job's range at its depth,
	// split across the worker pool — the paper's "partial key buffer ...
	// built by parallel host threads". Payloads survive every sort, so the
	// key source is always consulted fresh ("subsequent fetches of the
	// next partial key"), and each worker writes a disjoint range.
	rekey := func(r Range, depth int) {
		parallel.For(r.Len(), keygenGrain, cfg.Degree, func(lo, hi, _ int) {
			rekeyEntries(entries[r.Lo+lo:r.Lo+hi], src, depth)
		})
		keygenRows += int64(r.Len())
	}

	if cfg.Partitions > 1 && n > 1 && src.MaxDepth() > 0 {
		// Conflict-free range partitioning by the leading key byte: each
		// partition sorts independently, so no merge step is ever needed.
		rekey(Range{0, n}, 0)
		scratch := make([]Entry, n)
		offsets := partitionTopByte(entries, cfg.Degree, scratch)
		cpuWork += float64(n) // one extra linear pass
		// Group the 256 buckets into ~Partitions contiguous jobs.
		per := (n + cfg.Partitions - 1) / cfg.Partitions
		lo := 0
		for b := 0; b < 256; {
			hi := lo
			bb := b
			for bb < 256 && hi-lo < per {
				hi = offsets[bb+1]
				bb++
			}
			if hi > lo {
				queue = append(queue, job{r: Range{lo, hi}})
			}
			lo = hi
			b = bb
		}
	} else {
		queue = append(queue, job{r: Range{0, n}})
	}

	// Per-job spans lay out sequentially from the sort's start; each
	// job's duration is its own modeled cost at the configured degree.
	traceAt := cfg.TraceBase
	jobSpan := func(j job) trace.Context {
		if !cfg.Trace.Enabled() {
			return trace.Context{}
		}
		js := cfg.Trace.Begin("sort-job", fmt.Sprintf("job depth=%d", j.depth), traceAt)
		if j.requeued {
			js.Annotate(trace.Int("requeued", 1))
		}
		return js
	}
	endJob := func(js trace.Context, d vtime.Duration, attrs ...trace.Attr) {
		if !js.Enabled() {
			return
		}
		traceAt = traceAt.Add(d)
		js.End(traceAt, attrs...)
	}

	for len(queue) > 0 {
		j := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if j.r.Len() <= 1 {
			continue
		}
		st.Jobs++
		if j.depth > st.MaxDepth {
			st.MaxDepth = j.depth
		}
		js := jobSpan(j)
		if j.depth >= src.MaxDepth() {
			// Keys fully equal: deterministic tie-break by row id.
			sortByPayload(entries[j.r.Lo:j.r.Hi])
			cpuWork += nlogn(j.r.Len())
			st.CPUJobs++
			endJob(js, cfg.Model.CPUTime(nlogn(j.r.Len()), cfg.Model.CPUSortRate, cfg.Degree),
				trace.Str("path", "cpu-tiebreak"), trace.Int("rows", int64(j.r.Len())))
			continue
		}
		rekey(j.r, j.depth)
		rekeyT := cfg.Model.CPUTime(float64(j.r.Len()), cfg.Model.CPUKeyGenRate, cfg.Degree)

		if cfg.Device != nil && j.r.Len() >= cfg.GPUThreshold {
			// Device path: the job needs two entry buffers on the device.
			// gpuRadixSort touches the host entries only after every
			// transfer succeeded, so a failed attempt leaves the range
			// intact for a retry or the host path below.
			need := int64(j.r.Len()) * 16
			var dups []Range
			var t vtime.Duration
			dev, err := cfg.Device(js, traceAt, need, func(res *gpu.Reservation) (err error) {
				dups, t, err = gpuRadixSort(entries, j.r, res, cfg.Model, cfg.Pinned, cfg.Degree)
				return err
			})
			if err == nil {
				gpuBusy[dev] += t
				st.GPUJobs++
				st.Requeues += len(dups)
				for _, d := range dups {
					queue = append(queue, job{r: d, depth: j.depth + 1, requeued: true})
				}
				endJob(js, rekeyT+t, trace.Str("path", "gpu"),
					trace.Int("rows", int64(j.r.Len())), trace.Int("dups", int64(len(dups))))
				continue
			}
			// No device admitted the job (or it failed): fall back to the
			// host, like Section 2.1.1's fallback path.
			st.Fallbacks++
		}

		// Host path: finish this range completely (all remaining depths
		// plus the row-id tie-break), so it never requeues. Large ranges
		// partition by leading byte and sort bucket-parallel; the modeled
		// cost charge is per-range, so it is identical at any degree.
		hostSortRange(entries, j.r, j.depth, src, cfg.Degree)
		hostWork := nlogn(j.r.Len()) * float64(src.MaxDepth()-j.depth)
		cpuWork += hostWork
		st.CPUJobs++
		endJob(js, rekeyT+cfg.Model.CPUTime(hostWork, cfg.Model.CPUSortRate, cfg.Degree),
			trace.Str("path", "cpu"), trace.Int("rows", int64(j.r.Len())))
	}

	perm := make([]int32, n)
	for i, e := range entries {
		perm[i] = int32(e.Payload())
	}

	st.KeyGen = cfg.Model.CPUTime(float64(keygenRows), cfg.Model.CPUKeyGenRate, cfg.Degree)
	st.CPUTime = cfg.Model.CPUTime(cpuWork, cfg.Model.CPUSortRate, cfg.Degree)
	for _, t := range gpuBusy {
		if t > st.GPUTime {
			st.GPUTime = t
		}
	}
	// CPU jobs and GPU jobs drain the queue concurrently.
	st.Modeled = st.KeyGen + vtime.Max(st.CPUTime, st.GPUTime)
	return perm, st, nil
}

// rekeyEntries regenerates the partial keys of es at depth from their
// payloads. It is a top-level loop, not a closure inside Sort's rekey,
// so Payload and MakeEntry inline.
func rekeyEntries(es []Entry, src KeySource, depth int) {
	for i, e := range es {
		p := e.Payload()
		es[i] = MakeEntry(src.PartialKey(int32(p), depth), p)
	}
}

func sortByPayload(es []Entry) {
	slices.SortFunc(es, func(a, b Entry) int { return cmp.Compare(a.Payload(), b.Payload()) })
}

func nlogn(n int) float64 {
	if n < 2 {
		return float64(n)
	}
	return float64(n) * math.Log2(float64(n))
}
