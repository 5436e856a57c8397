package columnar

import (
	"math/bits"

	"blugpu/internal/parallel"
)

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

// NewBitmapFull returns an all-one bitmap over n rows.
func NewBitmapFull(n int) *Bitmap {
	b := NewBitmap(n)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
	return b
}

// Len returns the number of rows the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Words exposes the backing words (64 rows each, row i at bit i&63 of
// word i>>6) for kernel-speed scans. A writer must leave the bits beyond
// Len in the last word zero, so Count stays exact.
func (b *Bitmap) Words() []uint64 { return b.words }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b *Bitmap) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

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

// And intersects o into b in place. Panics if lengths differ.
func (b *Bitmap) And(o *Bitmap) {
	b.mustMatch(o)
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Or unions o into b in place. Panics if lengths differ.
func (b *Bitmap) Or(o *Bitmap) {
	b.mustMatch(o)
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

// AndNot removes o's bits from b in place. Panics if lengths differ.
func (b *Bitmap) AndNot(o *Bitmap) {
	b.mustMatch(o)
	for i := range b.words {
		b.words[i] &^= o.words[i]
	}
}

// Not inverts b in place.
func (b *Bitmap) Not() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.trim()
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{n: b.n, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
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

// Indices materializes the set bits as a slice of row ids. It is the
// sequential reference for IndicesDegree.
func (b *Bitmap) Indices() []int32 {
	out := make([]int32, 0, b.Count())
	b.ForEach(func(i int) { out = append(out, int32(i)) })
	return out
}

// indicesGrainWords is the minimum bitmap words per worker for the
// parallel selection scan (64 rows per word).
const indicesGrainWords = 256

// IndicesDegree is the parallel selection scan: per-worker popcounts
// size each worker's output region, then workers emit their word ranges
// independently. The result is identical to Indices at any degree.
func (b *Bitmap) IndicesDegree(degree int) []int32 {
	nw := len(b.words)
	w := parallel.Workers(nw, indicesGrainWords, degree)
	if w <= 1 {
		return b.Indices()
	}
	counts := make([]int, w)
	parallel.For(nw, indicesGrainWords, degree, func(lo, hi, worker int) {
		c := 0
		for _, word := range b.words[lo:hi] {
			c += bits.OnesCount64(word)
		}
		counts[worker] = c
	})
	total := 0
	offsets := make([]int, w)
	for i, c := range counts {
		offsets[i] = total
		total += c
	}
	out := make([]int32, total)
	parallel.For(nw, indicesGrainWords, degree, func(lo, hi, worker int) {
		pos := offsets[worker]
		for wi := lo; wi < hi; wi++ {
			word := b.words[wi]
			for word != 0 {
				out[pos] = int32(wi*64 + bits.TrailingZeros64(word))
				pos++
				word &= word - 1
			}
		}
	})
	return out
}

func (b *Bitmap) mustMatch(o *Bitmap) {
	if b.n != o.n {
		panic("columnar: bitmap length mismatch")
	}
}

// trim clears bits beyond n in the last word so Count stays exact.
func (b *Bitmap) trim() {
	if rem := uint(b.n) & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}
