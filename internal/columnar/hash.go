package columnar

import (
	"math"
	"sync/atomic"
)

// hashMemo caches a column's content hash on the column object. Columns
// are immutable, so the first computed value is final: a second goroutine
// racing the first computes and stores the same value.
type hashMemo struct{ p atomic.Pointer[uint64] }

func (m *hashMemo) get(compute func() uint64) uint64 {
	if p := m.p.Load(); p != nil {
		return *p
	}
	h := compute()
	m.p.Store(&h)
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

// ContentHash implements Column.
func (c *Int64Column) ContentHash() uint64 {
	return c.hash.get(func() uint64 {
		h := mix64(0, uint64(len(c.data)))
		for i, v := range c.data {
			h = mixRow(h, uint64(v), c.nulls, i)
		}
		return h
	})
}

// ContentHash implements Column.
func (c *Float64Column) ContentHash() uint64 {
	return c.hash.get(func() uint64 {
		h := mix64(0, uint64(len(c.data)))
		for i, v := range c.data {
			h = mixRow(h, math.Float64bits(v), c.nulls, i)
		}
		return h
	})
}

// ContentHash implements Column; the dictionary is part of the content.
func (c *StringColumn) ContentHash() uint64 {
	return c.hash.get(func() uint64 {
		h := mix64(0, uint64(len(c.codes)))
		for i, code := range c.codes {
			h = mixRow(h, uint64(uint32(code)), c.nulls, i)
		}
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
	})
}
