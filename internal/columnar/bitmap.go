package columnar

import "math/bits"

// Bitmap is a fixed-length bitset over row ids. The engine uses bitmaps
// for null tracking and for selection vectors produced by predicate
// evaluation.
type Bitmap struct {
	n     int
	words []uint64
}

// NewBitmap returns an all-zero bitmap over n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of rows the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Words exposes the backing words (64 rows each, row i at bit i&63 of
// word i>>6) for kernel-speed scans. A writer must leave the bits beyond
// Len in the last word zero, so Count stays exact.
func (b *Bitmap) Words() []uint64 { return b.words }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Get reports bit i.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// NilIfEmpty returns b, or nil when b is nil or has no bit set: a column
// whose rows are all non-NULL carries no bitmap.
func (b *Bitmap) NilIfEmpty() *Bitmap {
	if b == nil || b.Count() == 0 {
		return nil
	}
	return b
}

// ForEach calls fn for every set bit in ascending order.
func (b *Bitmap) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(wi*64 + bit)
			w &= w - 1
		}
	}
}

// Indices materializes the set bits as a slice of row ids.
func (b *Bitmap) Indices() []int32 {
	out := make([]int32, 0, b.Count())
	b.ForEach(func(i int) { out = append(out, int32(i)) })
	return out
}
