package columnar

import (
	"cmp"
	"math"
	"sync/atomic"
)

// hashMemo caches a column's content hash on the column object, shared
// with every header renamed from it, which holds the same values. Columns
// are immutable, so the first computed value is final: a second goroutine
// racing the first computes and stores the same value.
type hashMemo struct {
	p      atomic.Pointer[uint64]
	shared *hashMemo // the memo of the column this header was renamed from
}

// store memoizes h and returns it.
func (m *hashMemo) store(h uint64) uint64 {
	m.p.Store(&h)
	return h
}

// provKey is a provenance key, set when a column is made (WithKey); the
// zero value is none.
type provKey struct {
	v   uint64
	set bool
}

// WithKey returns c's header under the provenance key key, without
// copying: Key then returns key instead of hashing the content. The caller
// vouches that key determines the content, the way a join's output column
// is fixed by its source column and the two key columns. Building key takes
// O(1) where hashing the content walks every value.
func WithKey(c Column, key uint64) Column {
	out := c.Rename(c.Name())
	out.setKey(key)
	return out
}

// MixKeys folds keys, in order, into one key with the content hash's
// mixer: the way a provenance key is built from its inputs' keys.
func MixKeys(keys ...uint64) uint64 {
	h := mix64(0, uint64(len(keys)))
	for _, k := range keys {
		h = mix64(h, k)
	}
	return h
}

// mix64 folds v into h with a splitmix64-style avalanche.
func mix64(h, v uint64) uint64 {
	x := h + v + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mixRow folds row i's value bits and, when the row is NULL, its position.
func mixRow(h, bits uint64, nulls *Bitmap, i int) uint64 {
	h = mix64(h, bits)
	if nulls != nil && nulls.Get(i) {
		h = mix64(h, uint64(i)*2+1)
	}
	return h
}

// setKey implements Column.
func (v *vec[T]) setKey(key uint64) { v.prov = provKey{key, true} }

// Key implements Column.
func (v *vec[T]) Key() uint64 {
	if v.prov.set {
		return v.prov.v
	}
	return v.ContentHash()
}

// ContentHash implements Column.
func (v *vec[T]) ContentHash() uint64 {
	m := cmp.Or(v.hash.shared, &v.hash)
	if p := m.p.Load(); p != nil {
		return *p
	}
	return m.store(v.hashValues())
}

// hashValues hashes the vector's length, values and NULL positions.
func (v *vec[T]) hashValues() uint64 {
	h := mix64(0, uint64(len(v.data)))
	// One type switch per column, so no row's value is boxed.
	switch d := any(v.data).(type) {
	case []int64:
		for i, x := range d {
			h = mixRow(h, uint64(x), v.nulls, i)
		}
	case []float64:
		for i, x := range d {
			h = mixRow(h, math.Float64bits(x), v.nulls, i)
		}
	case []int32:
		for i, x := range d {
			h = mixRow(h, uint64(uint32(x)), v.nulls, i)
		}
	}
	return h
}

// Key implements Column. It is StringColumn's own, not vec's: the content
// hash it falls back on must include the dictionary.
func (c *StringColumn) Key() uint64 {
	if c.prov.set {
		return c.prov.v
	}
	return c.ContentHash()
}

// ContentHash implements Column; the dictionary is part of the content.
func (c *StringColumn) ContentHash() uint64 {
	m := cmp.Or(c.hash.shared, &c.hash)
	if p := m.p.Load(); p != nil {
		return *p
	}
	return m.store(c.hashDict(c.hashValues()))
}

// hashDict folds every dictionary entry into h.
func (c *StringColumn) hashDict(h uint64) uint64 {
	for _, s := range c.dict {
		// FNV-1a over the entry, folded once; entries are short.
		f := uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			f ^= uint64(s[i])
			f *= 1099511628211
		}
		h = mix64(h, f)
	}
	return h
}
