package bsort

import (
	"cmp"
	"math"
	"slices"

	"blugpu/internal/parallel"
	"blugpu/internal/vtime"
)

// topkGrain is the minimum rows per worker for a top-k selection. Each
// worker adds up to k rows to the final sort, so a worker must scan
// enough rows to turn most of them away.
const topkGrain = 512

// TopK returns the first k row ids of Sort's order over src — ascending
// by the full binary key, ties broken by row id — in that order; all of
// them when k >= NumRows. It is ORDER BY ... LIMIT k as a selection: each
// worker keeps a bounded max-heap of the k least rows of its own
// contiguous range, the heaps are concatenated in worker order and only
// their union, at most k per worker, is sorted. The order is total, so
// the answer is the same at any degree.
func TopK(src KeySource, k, degree int) []int32 {
	n := src.NumRows()
	k = min(k, n)
	if k <= 0 {
		return nil
	}
	heaps := make([][]int32, parallel.Workers(n, topkGrain, degree))
	parallel.For(n, topkGrain, degree, func(lo, hi, worker int) {
		heaps[worker] = boundedHeap(src, lo, hi, k)
	})
	all := slices.Concat(heaps...)
	depth := src.MaxDepth()
	slices.SortFunc(all, func(a, b int32) int { return compareRows(src, 0, depth, a, b) })
	return all[:k]
}

// compareRows orders rows a and b by their key segments from depth up to
// maxDepth, then by row id: Sort's total order over the segments it has
// not yet consulted.
func compareRows(src KeySource, depth, maxDepth int, a, b int32) int {
	for d := depth; d < maxDepth; d++ {
		if ka, kb := src.PartialKey(a, d), src.PartialKey(b, d); ka != kb {
			return cmp.Compare(ka, kb)
		}
	}
	return cmp.Compare(a, b)
}

// boundedHeap returns the k least rows of [lo, hi) as a max-heap (root =
// the greatest kept row). A row enters only when it orders before the
// root; the root's leading key segment is cached, so most rows are
// turned away after one key fetch.
func boundedHeap(src KeySource, lo, hi, k int) []int32 {
	depth := src.MaxDepth()
	h := make([]int32, 0, min(k, hi-lo))
	var rootKey uint32
	setRoot := func() {
		if depth > 0 {
			rootKey = src.PartialKey(h[0], 0)
		}
	}
	for r := int32(lo); r < int32(hi); r++ {
		if len(h) < k {
			h = append(h, r)
			// Sift up.
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if compareRows(src, 0, depth, h[i], h[p]) <= 0 {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
			setRoot()
			continue
		}
		if depth > 0 {
			if key := src.PartialKey(r, 0); key > rootKey {
				continue
			} else if key == rootKey && compareRows(src, 0, depth, r, h[0]) > 0 {
				continue
			}
		} else if r > h[0] {
			continue
		}
		h[0] = r
		// Sift down.
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && compareRows(src, 0, depth, h[c+1], h[c]) > 0 {
				c++
			}
			if compareRows(src, 0, depth, h[c], h[i]) <= 0 {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		setRoot()
	}
	return h
}

// TopKCost is TopK's host charge over n rows of depth 4-byte key
// segments: key generation for every row, then one comparison per row
// against the heap's bound and k·log2(k) comparisons per segment for the
// rows kept.
func TopKCost(m *vtime.CostModel, n, k, depth, degree int) vtime.Duration {
	kept := float64(k) * math.Log2(float64(k)) * float64(depth)
	return m.CPUTime(float64(n), m.CPUKeyGenRate, degree) + m.CPUTime(float64(n)+kept, m.CPUSortRate, degree)
}

// HostSortCost is a full host sort's charge over the same rows: what Sort
// charges for one host job over all n of them, key generation and
// n·log2(n) comparisons per segment.
func HostSortCost(m *vtime.CostModel, n, depth, degree int) vtime.Duration {
	return m.CPUTime(float64(n), m.CPUKeyGenRate, degree) + m.CPUTime(nlogn(n)*float64(depth), m.CPUSortRate, degree)
}
