package columnar

import (
	"cmp"
	"fmt"
	"sort"
	"sync/atomic"
)

// Column is one immutable column of a table.
type Column interface {
	// Name is the column's name within its table.
	Name() string
	// Type is the logical type.
	Type() Type
	// Len is the row count.
	Len() int
	// IsNull reports whether row i is NULL.
	IsNull(i int) bool
	// Value materializes row i as a Value (slow path; kernels use the
	// typed accessors on the concrete types).
	Value(i int) Value
	// Rename returns the column under a new name without copying: the
	// new header shares the value vector, dictionary and null bitmap.
	Rename(name string) Column
	// ContentHash hashes the column's content — length, every value,
	// every null position and (for strings) the dictionary, but not the
	// name. It is computed on first use and kept on the column.
	ContentHash() uint64
	// Key addresses the column's content for a cache: columns of equal
	// key, length and type hold equal data. It is ContentHash, unless the
	// column's maker gave it a provenance key (WithKey).
	Key() uint64
	// setKey gives a fresh header a provenance key (WithKey). Unexported,
	// it closes Column to the three types of this package.
	setKey(key uint64)
}

// vec is the column core every column type embeds: a named vector of
// fixed-width encoded values — integers, floats or dictionary codes, the
// one layout BLU keeps for every column — with an optional null bitmap
// (nil when no row is NULL), the content-hash memo and the provenance
// key. It holds an atomic, so it is filled in place, never copied.
type vec[T int64 | float64 | int32] struct {
	name  string
	data  []T
	nulls *Bitmap
	hash  hashMemo
	prov  provKey
}

func (v *vec[T]) Name() string { return v.name }
func (v *vec[T]) Len() int     { return len(v.data) }
func (v *vec[T]) IsNull(i int) bool {
	return v.nulls != nil && v.nulls.Get(i)
}

// Nulls exposes the null bitmap (nil when no row is NULL).
func (v *vec[T]) Nulls() *Bitmap { return v.nulls }

// rename fills dst as v's header under name: it shares the vector, the
// bitmap, the provenance key and the content-hash memo, so a hash either
// header computes is the other's too.
func (v *vec[T]) rename(dst *vec[T], name string) {
	dst.name, dst.data, dst.nulls, dst.prov = name, v.data, v.nulls, v.prov
	dst.hash.shared = cmp.Or(v.hash.shared, &v.hash)
}

// --- Int64 ---

// Int64Column is a flat vector of 64-bit integers.
type Int64Column struct {
	vec[int64]
	// index is the join key index, once KeyIndex has been asked for it.
	index atomic.Pointer[KeyIndex]
}

// NewInt64Column builds a column from data; nulls may be nil.
func NewInt64Column(name string, data []int64, nulls *Bitmap) *Int64Column {
	return &Int64Column{vec: vec[int64]{name: name, data: data, nulls: nulls}}
}

func (c *Int64Column) Type() Type { return Int64 }
func (c *Int64Column) Value(i int) Value {
	if c.IsNull(i) {
		return NullValue(Int64)
	}
	return IntValue(c.data[i])
}

// Int64 returns the raw value of row i (undefined for NULL rows).
func (c *Int64Column) Int64(i int) int64 { return c.data[i] }

// Data exposes the backing vector for kernel-speed scans.
func (c *Int64Column) Data() []int64 { return c.data }

// Rename implements Column.
func (c *Int64Column) Rename(name string) Column {
	out := &Int64Column{}
	c.rename(&out.vec, name)
	out.index.Store(c.index.Load())
	return out
}

// --- Float64 ---

// Float64Column is a flat vector of float64.
type Float64Column struct{ vec[float64] }

// NewFloat64Column builds a column from data; nulls may be nil.
func NewFloat64Column(name string, data []float64, nulls *Bitmap) *Float64Column {
	return &Float64Column{vec[float64]{name: name, data: data, nulls: nulls}}
}

func (c *Float64Column) Type() Type { return Float64 }
func (c *Float64Column) Value(i int) Value {
	if c.IsNull(i) {
		return NullValue(Float64)
	}
	return FloatValue(c.data[i])
}

// Float64 returns the raw value of row i.
func (c *Float64Column) Float64(i int) float64 { return c.data[i] }

// Data exposes the backing vector.
func (c *Float64Column) Data() []float64 { return c.data }

// Rename implements Column.
func (c *Float64Column) Rename(name string) Column {
	out := &Float64Column{}
	c.rename(&out.vec, name)
	return out
}

// --- String (dictionary-encoded) ---

// StringColumn stores strings as 32-bit codes into a sorted dictionary —
// BLU's dictionary compression. Grouping and equality run on codes;
// order comparisons also run on codes because the dictionary is sorted.
type StringColumn struct {
	vec[int32]
	dict []string // sorted, unique
}

func (c *StringColumn) Type() Type { return String }
func (c *StringColumn) Value(i int) Value {
	if c.IsNull(i) {
		return NullValue(String)
	}
	return StringValue(c.dict[c.data[i]])
}

// Code returns the dictionary code of row i.
func (c *StringColumn) Code(i int) int32 { return c.data[i] }

// Codes exposes the backing code vector.
func (c *StringColumn) Codes() []int32 { return c.data }

// Rename implements Column.
func (c *StringColumn) Rename(name string) Column {
	out := &StringColumn{dict: c.dict}
	c.rename(&out.vec, name)
	return out
}

// WithCodes returns a column of the given codes and null bitmap (nil for
// none) over c's dictionary, shared rather than re-encoded.
func (c *StringColumn) WithCodes(name string, codes []int32, nulls *Bitmap) *StringColumn {
	return &StringColumn{vec: vec[int32]{name: name, data: codes, nulls: nulls}, dict: c.dict}
}

// DictSize returns the number of distinct values in the dictionary.
func (c *StringColumn) DictSize() int { return len(c.dict) }

// Decode maps a code back to its string.
func (c *StringColumn) Decode(code int32) string { return c.dict[code] }

// Lookup returns the code for s and whether s is in the dictionary.
func (c *StringColumn) Lookup(s string) (int32, bool) {
	i := sort.SearchStrings(c.dict, s)
	if i < len(c.dict) && c.dict[i] == s {
		return int32(i), true
	}
	return 0, false
}

// --- Builders ---

// builder accumulates a column's values and its NULL rows; each column
// type's builder embeds one and adds its own Build.
type builder[T any] struct {
	name  string
	data  []T
	nulls []int
}

// Append adds one value.
func (b *builder[T]) Append(v T) { b.data = append(b.data, v) }

// AppendNull adds one NULL.
func (b *builder[T]) AppendNull() {
	var zero T
	b.nulls = append(b.nulls, len(b.data))
	b.data = append(b.data, zero)
}

// bitmap marks the NULL rows appended so far, nil when there are none.
func (b *builder[T]) bitmap() *Bitmap {
	if len(b.nulls) == 0 {
		return nil
	}
	bm := NewBitmap(len(b.data))
	for _, i := range b.nulls {
		bm.Set(i)
	}
	return bm
}

// Int64Builder accumulates an Int64Column.
type Int64Builder struct{ builder[int64] }

// NewInt64Builder returns a builder for the named column.
func NewInt64Builder(name string) *Int64Builder {
	return &Int64Builder{builder[int64]{name: name}}
}

// Build freezes the column.
func (b *Int64Builder) Build() *Int64Column { return NewInt64Column(b.name, b.data, b.bitmap()) }

// Float64Builder accumulates a Float64Column.
type Float64Builder struct{ builder[float64] }

// NewFloat64Builder returns a builder for the named column.
func NewFloat64Builder(name string) *Float64Builder {
	return &Float64Builder{builder[float64]{name: name}}
}

// Build freezes the column.
func (b *Float64Builder) Build() *Float64Column { return NewFloat64Column(b.name, b.data, b.bitmap()) }

// StringBuilder accumulates a dictionary-encoded StringColumn.
type StringBuilder struct{ builder[string] }

// NewStringBuilder returns a builder for the named column.
func NewStringBuilder(name string) *StringBuilder {
	return &StringBuilder{builder[string]{name: name}}
}

// Build freezes the column, constructing the sorted dictionary.
func (b *StringBuilder) Build() *StringColumn {
	distinct := make(map[string]struct{}, len(b.data))
	for _, v := range b.data {
		distinct[v] = struct{}{}
	}
	dict := make([]string, 0, len(distinct))
	for v := range distinct {
		dict = append(dict, v)
	}
	sort.Strings(dict)
	codeOf := make(map[string]int32, len(dict))
	for i, v := range dict {
		codeOf[v] = int32(i)
	}
	codes := make([]int32, len(b.data))
	for i, v := range b.data {
		codes[i] = codeOf[v]
	}
	return &StringColumn{vec: vec[int32]{name: b.name, data: codes, nulls: b.bitmap()}, dict: dict}
}

// ColumnFromValues builds a column of the given type from generic values
// (used by tests and the SQL shell's INSERT path).
func ColumnFromValues(name string, t Type, values []Value) (Column, error) {
	switch t {
	case Int64:
		b := NewInt64Builder(name)
		appendValues(&b.builder, values, func(v Value) int64 { return v.I })
		return b.Build(), nil
	case Float64:
		b := NewFloat64Builder(name)
		appendValues(&b.builder, values, func(v Value) float64 { return v.F })
		return b.Build(), nil
	case String:
		b := NewStringBuilder(name)
		appendValues(&b.builder, values, func(v Value) string { return v.S })
		return b.Build(), nil
	default:
		return nil, fmt.Errorf("columnar: unsupported type %v", t)
	}
}

// appendValues appends values to b, a NULL as one and any other value
// as get reads it.
func appendValues[T any](b *builder[T], values []Value, get func(Value) T) {
	for _, v := range values {
		if v.Null {
			b.AppendNull()
		} else {
			b.Append(get(v))
		}
	}
}
