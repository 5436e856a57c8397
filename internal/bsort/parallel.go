package bsort

import (
	"slices"

	"blugpu/internal/parallel"
)

// keygenGrain is the minimum rows per worker for partial-key generation;
// SDS key extraction is expensive enough that small chunks still pay.
const keygenGrain = 512

// radixGrain is the minimum items per worker for a radix pass's
// histogram and scatter.
const radixGrain = 4096

// hostPartitionMin is the smallest range worth partition-parallel
// sorting on the host; below it a single comparison sort wins.
const hostPartitionMin = 1 << 14

// BuildKeyBuffer materializes the partial key buffer for every row of
// src at the given depth: entry i carries row i's 4-byte partial key and
// its payload. This is the paper's "partial key buffer ... built by
// parallel host threads" (Section 3); Sort runs the same per-range
// generation internally, and the benchmarks drive this entry point.
func BuildKeyBuffer(src KeySource, depth, degree int) []Entry {
	n := src.NumRows()
	entries := make([]Entry, n)
	parallel.For(n, keygenGrain, degree, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			entries[i] = MakeEntry(src.PartialKey(int32(i), depth), uint32(i))
		}
	})
	return entries
}

// RadixPass is one stable counting-sort pass over 8-bit digits: it
// scatters keys into dstKeys by the digit at bit shift, input order kept
// within a digit, carries vals into dstVals alongside when vals is not
// nil, and returns the 257 digit offsets. Workers take the contiguous
// input ranges parallel.For fixes by (len(keys), degree); each counts its
// range's digits, and write cursors laid out digit-major, worker-minor
// reproduce the sequential stable scatter exactly, because worker ranges
// cover the input in index order. When every key shares one digit the
// pass writes nothing and reports moved false: the input is already in
// the pass's order. The engine's group-key order, the device radix sort
// and the host partition all run their passes here.
func RadixPass[K ~uint64](keys, dstKeys []K, vals, dstVals []int32, shift uint, degree int) (offsets [257]int, moved bool) {
	n := len(keys)
	cursors := make([][256]int, parallel.Workers(n, radixGrain, degree))
	parallel.For(n, radixGrain, degree, func(lo, hi, worker int) {
		c := &cursors[worker]
		for _, k := range keys[lo:hi] {
			c[byte(k>>shift)]++
		}
	})
	pos := 0
	for d := 0; d < 256; d++ {
		offsets[d] = pos
		for w := range cursors {
			c := cursors[w][d]
			cursors[w][d] = pos
			pos += c
		}
	}
	offsets[256] = pos
	if n == 0 {
		return offsets, false
	}
	if d := int(byte(keys[0] >> shift)); offsets[d+1]-offsets[d] == n {
		return offsets, false
	}
	parallel.For(n, radixGrain, degree, func(lo, hi, worker int) {
		c := &cursors[worker]
		for i := lo; i < hi; i++ {
			k := keys[i]
			d := byte(k >> shift)
			dstKeys[c[d]] = k
			if vals != nil {
				dstVals[c[d]] = vals[i]
			}
			c[d]++
		}
	})
	return offsets, true
}

// partitionTopByte stably scatters es into 256 buckets by the leading
// byte of the current partial key, using scratch (len >= len(es)) as the
// out-of-place target, and returns the 257 bucket offsets.
func partitionTopByte(es []Entry, degree int, scratch []Entry) [257]int {
	offsets, moved := RadixPass(es, scratch[:len(es)], nil, nil, 56, degree)
	if moved {
		copy(es, scratch)
	}
	return offsets
}

// hostSortRange finishes a job's range entirely on the host: entries are
// ordered by every remaining key depth with the row-id tie-break, so the
// range never requeues. Large ranges at degree > 1 take the
// partition-parallel fallback: a conflict-free scatter into 256 buckets
// by the leading byte of the current partial key (the CPU analogue of
// the device's partition pass), then the buckets sort concurrently on a
// small worker pool. The comparator is a total order, so the
// concatenated buckets are bit-identical to a sequential sort.
//
// The caller must have rekeyed the range at `depth` so the top byte of
// each entry's partial key is the partition digit.
func hostSortRange(entries []Entry, r Range, depth int, src KeySource, degree int) {
	maxDepth := src.MaxDepth()
	order := func(a, b Entry) int {
		return compareRows(src, depth, maxDepth, int32(a.Payload()), int32(b.Payload()))
	}
	es := entries[r.Lo:r.Hi]
	workers := parallel.Degree(degree)
	if workers <= 1 || len(es) < hostPartitionMin {
		slices.SortFunc(es, order)
		return
	}
	scratch := make([]Entry, len(es))
	offsets := partitionTopByte(es, degree, scratch)
	buckets := make(chan Range, 256)
	for b := 0; b < 256; b++ {
		if offsets[b+1]-offsets[b] > 1 {
			buckets <- Range{offsets[b], offsets[b+1]}
		}
	}
	close(buckets)
	parallel.Go(workers, func(int) {
		for br := range buckets {
			slices.SortFunc(es[br.Lo:br.Hi], order)
		}
	})
}
