// Package kmv implements the K-Minimum-Values distinct-count sketch.
//
// The hybrid group-by chain (paper Section 4.2) feeds every hashed
// grouping key through a KMV sketch while the HASH evaluator runs, and
// uses the resulting estimate of the number of groups to size the GPU's
// global hash table: the table only needs to be "slightly larger than the
// estimated number of groups" instead of as large as the input row count.
//
// KMV keeps the k smallest distinct hash values seen. If the k-th smallest
// of uniformly distributed hashes (normalized into [0,1)) is m, the
// distinct count is estimated as (k-1)/m.
package kmv

import (
	"errors"
	"math"
	"math/bits"

	"blugpu/internal/murmur"
)

// DefaultK is a good default sketch size: standard error ≈ 1/sqrt(k-2),
// about 3.2% at k=1024.
const DefaultK = 1024

// Sketch is a K-Minimum-Values distinct-count estimator. The zero value is
// not usable; construct with New. Sketch is not safe for concurrent use;
// the evaluator chain keeps one per thread and merges.
type Sketch struct {
	k    int
	heap []uint64 // the k smallest values seen: a max-heap once k are kept
	seen set      // the values in heap
	n    uint64   // total values offered
}

// New returns a sketch keeping the k smallest distinct hash values.
func New(k int) (*Sketch, error) {
	if k < 2 {
		return nil, errors.New("kmv: k must be >= 2")
	}
	return &Sketch{
		k:    k,
		heap: make([]uint64, 0, k),
		seen: newSet(k),
	}, nil
}

// MustNew is New for known-good k; it panics on error.
func MustNew(k int) *Sketch {
	s, err := New(k)
	if err != nil {
		panic(err)
	}
	return s
}

// Observed returns the total number of values offered to the sketch.
func (s *Sketch) Observed() uint64 { return s.n }

// AddHash offers one already-hashed value. Until k distinct values are
// kept they are only collected; the k-th arranges them into the heap, so
// the fill costs no sifting.
func (s *Sketch) AddHash(h uint64) {
	s.n++
	full := len(s.heap) == s.k
	if full && h >= s.heap[0] {
		return
	}
	if !s.seen.add(h) {
		return // already kept
	}
	if !full {
		s.heap = append(s.heap, h)
		if len(s.heap) == s.k {
			for i := s.k/2 - 1; i >= 0; i-- {
				s.siftDown(i)
			}
		}
		return
	}
	// Replace the current maximum.
	s.seen.remove(s.heap[0])
	s.heap[0] = h
	s.siftDown(0)
}

// Add hashes and offers a byte-slice key.
func (s *Sketch) Add(key []byte) { s.AddHash(murmur.Sum64(key, 0x9747b28c)) }

// AddUint64 hashes and offers a 64-bit key.
func (s *Sketch) AddUint64(v uint64) { s.AddHash(murmur.Sum64Uint64(v, 0x9747b28c)) }

// Estimate returns the estimated number of distinct values observed.
func (s *Sketch) Estimate() float64 {
	if len(s.heap) < s.k {
		// Sketch not yet full: the exact distinct count so far, and
		// heap is not yet a heap.
		return float64(len(s.heap))
	}
	// kth minimum normalized into (0,1].
	m := (float64(s.heap[0]) + 1) / math.Pow(2, 64)
	return float64(s.k-1) / m
}

// EstimateUint64 returns the estimate rounded to a count, never less
// than 1 when anything was observed.
func (s *Sketch) EstimateUint64() uint64 {
	if s.n == 0 {
		return 0
	}
	e := s.Estimate()
	if e < 1 {
		return 1
	}
	return uint64(e + 0.5)
}

// Merge folds other into s. Both sketches must have been built with the
// same hash scheme; the merged sketch keeps the k smallest of the union.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil {
		return
	}
	s.n += other.n
	for _, h := range other.heap {
		// Count bookkeeping only once: AddHash increments n.
		s.n--
		s.AddHash(h)
	}
}

// siftDown moves heap[i] down to its place in the max-heap, carrying it
// as a hole rather than swapping at every level.
func (s *Sketch) siftDown(i int) {
	h := s.heap
	v := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r] > h[c] {
			c = r
		}
		if h[c] <= v {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = v
}

// set is a flat open-addressing set of at most k values: linear probing
// over a power-of-two table kept at most half full, with backward-shift
// deletion so removals leave no tombstones behind. Slot value 0 is empty;
// the value 0 itself is held by zero.
type set struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
	zero  bool
}

func newSet(k int) set {
	n := 1 << bits.Len(uint(2*k-1)) // the power of two >= 2k
	return set{slots: make([]uint64, n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
}

// home is v's preferred slot: a Fibonacci hash, so values that differ only
// in their low bits still spread.
func (t *set) home(v uint64) int { return int((v * 0x9e3779b97f4a7c15) >> t.shift) }

// add inserts v and reports whether it was absent.
func (t *set) add(v uint64) bool {
	if v == 0 {
		fresh := !t.zero
		t.zero = true
		return fresh
	}
	m := len(t.slots) - 1
	for i := t.home(v); ; i = (i + 1) & m {
		switch t.slots[i] {
		case 0:
			t.slots[i] = v
			return true
		case v:
			return false
		}
	}
}

// remove deletes v, which must be present, and shifts back every later
// entry of its probe run that may move closer to its home.
func (t *set) remove(v uint64) {
	if v == 0 {
		t.zero = false
		return
	}
	m := len(t.slots) - 1
	i := t.home(v)
	for t.slots[i] != v {
		i = (i + 1) & m
	}
	for j := (i + 1) & m; t.slots[j] != 0; j = (j + 1) & m {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: moving it before its home would hide it.
		if h := t.home(t.slots[j]); (j-h)&m >= (j-i)&m {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = 0
}
