package columnar

import "math/bits"

// directSpanFactor bounds the direct-address table: it is used while the
// non-NULL key span is at most this multiple of the non-NULL row count,
// so the table costs no more than a few int32 per indexed row. Sparser
// keys go to open addressing.
const directSpanFactor = 4

// KeyIndex maps every non-NULL value of an Int64Column to the rows that
// hold it: the build side of a hash join. It is immutable and lives with
// the column (see Int64Column.KeyIndex), so an index over a base table is
// built once per process and one over an intermediate is collected with
// its query. Columns never change, so a resident index needs no
// invalidation: replacing a table replaces its columns, and the old
// index goes with them.
//
// Dense keys are direct-addressed (direct[key-min]); sparse ones hash into
// an open-addressing table at load <= 1/2. Either way a key leads to its
// lowest row, and rows sharing a key are chained through next in
// ascending row order.
type KeyIndex struct {
	// min rebases keys for direct addressing.
	min int64
	// direct[key-min] is the lowest row holding key, -1 for none. nil when
	// the index is open-addressed.
	direct []int32
	// Open addressing: heads[s] is the lowest row holding keys[s], -1 for
	// an empty slot; a key starts probing at (key*phi)>>shift. nil when
	// the index is direct.
	keys  []int64
	heads []int32
	shift uint
	// next[r] is the next higher row with r's key, -1 at the end of the
	// chain. nil when every key is unique.
	next []int32
}

// First returns the lowest row whose value is key, or -1.
func (x *KeyIndex) First(key int64) int32 {
	// Unsigned distance: a key below min wraps past any table length, and
	// max-min never overflows however far apart the two are.
	if d := uint64(key) - uint64(x.min); d < uint64(len(x.direct)) {
		return x.direct[d]
	}
	if x.keys == nil {
		return -1 // outside a direct index's span
	}
	mask := uint64(len(x.heads) - 1)
	for s := slotOf(key, x.shift); ; s = (s + 1) & mask {
		if r := x.heads[s]; r < 0 || x.keys[s] == key {
			return r
		}
	}
}

// Next returns the next higher row with the same key as row, or -1.
func (x *KeyIndex) Next(row int32) int32 {
	if x.next == nil {
		return -1
	}
	return x.next[row]
}

// Unique reports whether no two rows share a key.
func (x *KeyIndex) Unique() bool { return x.next == nil }

// slotOf is Fibonacci hashing: the top bits of key*phi.
func slotOf(key int64, shift uint) uint64 {
	return (uint64(key) * 0x9e3779b97f4a7c15) >> shift
}

// KeyIndex returns the column's key index, built on first use and kept on
// the column exactly as ContentHash is: the column is immutable, so
// goroutines racing the first build compute equal indexes and all return
// whichever was stored first.
func (c *Int64Column) KeyIndex() *KeyIndex {
	if x := c.index.Load(); x != nil {
		return x
	}
	c.index.CompareAndSwap(nil, buildKeyIndex(c.data, c.nulls))
	return c.index.Load()
}

func buildKeyIndex(data []int64, nulls *Bitmap) *KeyIndex {
	isNull := func(i int) bool { return nulls != nil && nulls.Get(i) }
	var lo, hi int64
	n := 0
	for i, v := range data {
		if isNull(i) {
			continue
		}
		if n == 0 || v < lo {
			lo = v
		}
		if n == 0 || v > hi {
			hi = v
		}
		n++
	}
	x := &KeyIndex{min: lo}
	span := uint64(hi) - uint64(lo)
	if span <= directSpanFactor*uint64(n) {
		x.direct = filled(int(span) + 1)
	} else {
		size := 1 << bits.Len(uint(2*n-1)) // power of two >= 2n
		x.keys = make([]int64, size)
		x.heads = filled(size)
		x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	}
	// Rows go in highest first and each takes the head of its key's chain,
	// so a chain read from its head is in ascending row order.
	for i := len(data) - 1; i >= 0; i-- {
		if isNull(i) {
			continue
		}
		head := x.headOf(data[i])
		if *head >= 0 {
			if x.next == nil {
				x.next = filled(len(data))
			}
			x.next[i] = *head
		}
		*head = int32(i)
	}
	return x
}

// headOf returns key's chain head during the build, claiming an empty
// open-addressing slot for a key not seen before.
func (x *KeyIndex) headOf(key int64) *int32 {
	if x.direct != nil {
		return &x.direct[uint64(key)-uint64(x.min)]
	}
	mask := uint64(len(x.heads) - 1)
	for s := slotOf(key, x.shift); ; s = (s + 1) & mask {
		if x.heads[s] < 0 {
			x.keys[s] = key
			return &x.heads[s]
		}
		if x.keys[s] == key {
			return &x.heads[s]
		}
	}
}

// filled returns n row slots, all -1 (no row).
func filled(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}
