package monitor

import (
	"math"

	"blugpu/internal/vtime"
)

// histBuckets is the bucket count of the log-scale latency histogram.
// Bucket i covers durations in [2^(i-31), 2^(i-30)) seconds — bucket 0
// holds everything below ~0.5 ns and the top bucket everything from
// ~2^32 s up, a range no modeled latency escapes.
const histBuckets = 64

// Hist is a log-scale (power-of-two bucket) latency histogram. It
// replaces max-only tracking: alongside count/total/max it answers
// Quantile queries with bucket-resolution (±~41%) accuracy, which is
// what p50/p95/p99 columns need without storing samples.
//
// Not safe for concurrent use on its own; the Monitor guards it.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    vtime.Duration
	max    vtime.Duration
}

// histBucket maps a duration to its bucket index.
func histBucket(d vtime.Duration) int {
	s := d.Seconds()
	if s <= 0 {
		return 0
	}
	// frac*2^exp with frac in [0.5,1) => floor(log2 s) == exp-1.
	_, exp := math.Frexp(s)
	i := exp - 1 + 31
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one latency sample.
func (h *Hist) Observe(d vtime.Duration) {
	h.counts[histBucket(d)]++
	h.n++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples observed.
func (h *Hist) Count() uint64 { return h.n }

// Max returns the largest sample observed.
func (h *Hist) Max() vtime.Duration { return h.max }

// Total returns the sum of all samples.
func (h *Hist) Total() vtime.Duration { return h.sum }

// Mean returns the average sample, 0 when empty.
func (h *Hist) Mean() vtime.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / vtime.Duration(float64(h.n))
}

// Quantile returns an estimate of the p-quantile (p in [0,1]): the
// geometric midpoint of the bucket holding the ceil(p*n)-th sample,
// clamped to the observed maximum. Returns 0 when empty.
func (h *Hist) Quantile(p float64) vtime.Duration {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if cum >= rank {
			if i == 0 {
				// Sub-resolution bucket: its upper bound is already
				// ~0.5ns; report the max if even that overshoots.
				return vtime.Min(h.max, vtime.Duration(math.Ldexp(1, -31)))
			}
			// Geometric midpoint of [2^(i-31), 2^(i-30)).
			mid := vtime.Duration(math.Ldexp(math.Sqrt2, i-31))
			return vtime.Min(mid, h.max)
		}
	}
	return h.max
}

// Quantiles returns the (p50, p95, p99) triple.
func (h *Hist) Quantiles() (p50, p95, p99 vtime.Duration) {
	return h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
}

// HistBucket is one exported histogram bucket: the cumulative count of
// samples at or below UpperBound. The Prometheus exposition's le series
// is built directly from these.
type HistBucket struct {
	UpperBound vtime.Duration
	CumCount   uint64
}

// Buckets returns the non-empty buckets as cumulative counts with their
// upper bounds (2^(i-30) seconds for bucket i). Empty buckets are
// skipped — cumulative counts stay valid and the series stays minimal
// and deterministic. An empty histogram returns nil.
func (h *Hist) Buckets() []HistBucket {
	var out []HistBucket
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		if h.counts[i] == 0 {
			continue
		}
		cum += h.counts[i]
		out = append(out, HistBucket{
			UpperBound: vtime.Duration(math.Ldexp(1, i-30)),
			CumCount:   cum,
		})
	}
	return out
}
