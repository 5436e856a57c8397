package columnar

import (
	"slices"

	"blugpu/internal/parallel"
)

// gatherGrain is the minimum rows per worker for parallel gathers: below
// it, goroutine handoff costs more than the copy itself.
const gatherGrain = 2048

// gather copies the listed rows of the vector, in order, with their NULL
// marks. It is the sequential reference: the differential tests assert
// that gatherDegree produces identical columns.
func (v *vec[T]) gather(rows []int32) ([]T, *Bitmap) {
	data := make([]T, len(rows))
	var nulls *Bitmap
	for i, r := range rows {
		data[i] = v.data[r]
		if v.IsNull(int(r)) {
			if nulls == nil {
				nulls = NewBitmap(len(rows))
			}
			nulls.Set(i)
		}
	}
	return data, nulls
}

// gatherDegree is the parallel gather: disjoint row ranges are copied by
// the worker pool, each worker writing its own 64-aligned region of the
// output (and of the shared null bitmap), so the result is bit-identical
// to gather at any degree.
func (v *vec[T]) gatherDegree(rows []int32, degree int) ([]T, *Bitmap) {
	n := len(rows)
	data := make([]T, n)
	if v.nulls == nil {
		parallel.For(n, gatherGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				data[i] = v.data[rows[i]]
			}
		})
		return data, nil
	}
	nulls, found := NewBitmap(n), make([]bool, parallel.Workers(n, gatherGrain, degree))
	parallel.For(n, gatherGrain, degree, func(lo, hi, worker int) {
		any := false
		for i := lo; i < hi; i++ {
			data[i] = v.data[rows[i]]
			if v.nulls.Get(int(rows[i])) {
				nulls.Set(i)
				any = true
			}
		}
		found[worker] = any
	})
	return data, keepNulls(nulls, found)
}

// Gather builds a new column containing the given rows, in order. The
// executor uses it to materialize filtered, joined, sorted and limited
// intermediates without re-encoding dictionaries.
//
// Gather is the sequential reference; GatherDegree is the parallel path
// the engine threads its Degree into.
func (c *Int64Column) Gather(name string, rows []int32) *Int64Column {
	data, nulls := c.gather(rows)
	return NewInt64Column(name, data, nulls)
}

// GatherDegree is the parallel Gather.
func (c *Int64Column) GatherDegree(name string, rows []int32, degree int) *Int64Column {
	data, nulls := c.gatherDegree(rows, degree)
	return NewInt64Column(name, data, nulls)
}

// Gather builds a new column containing the given rows, in order.
func (c *Float64Column) Gather(name string, rows []int32) *Float64Column {
	data, nulls := c.gather(rows)
	return NewFloat64Column(name, data, nulls)
}

// GatherDegree is the parallel Gather for float columns.
func (c *Float64Column) GatherDegree(name string, rows []int32, degree int) *Float64Column {
	data, nulls := c.gatherDegree(rows, degree)
	return NewFloat64Column(name, data, nulls)
}

// Gather builds a new column containing the given rows, in order, sharing
// the dictionary with the source column.
func (c *StringColumn) Gather(name string, rows []int32) *StringColumn {
	codes, nulls := c.gather(rows)
	return c.WithCodes(name, codes, nulls)
}

// GatherDegree is the parallel Gather for dictionary columns; the
// dictionary is shared with the source, only codes are copied.
func (c *StringColumn) GatherDegree(name string, rows []int32, degree int) *StringColumn {
	codes, nulls := c.gatherDegree(rows, degree)
	return c.WithCodes(name, codes, nulls)
}

// keepNulls drops the bitmap when no worker found a null, matching the
// sequential Gather's lazily-allocated bitmap exactly.
func keepNulls(nulls *Bitmap, found []bool) *Bitmap {
	for _, f := range found {
		if f {
			return nulls
		}
	}
	return nil
}

// AnyNull reports whether nulls (nil for none) marks any row of the list
// (nil: every row) NULL: whether the column gathered through rows keeps a
// bitmap.
func AnyNull(nulls *Bitmap, rows []int32, degree int) bool {
	if nulls == nil || rows == nil {
		return nulls != nil && nulls.Count() > 0
	}
	found := make([]bool, parallel.Workers(len(rows), gatherGrain, degree))
	parallel.For(len(rows), gatherGrain, degree, func(lo, hi, worker int) {
		for _, r := range rows[lo:hi] {
			if nulls.Get(int(r)) {
				found[worker] = true
				return
			}
		}
	})
	return slices.Contains(found, true)
}

// GatherColumn dispatches Gather over the concrete column types.
func GatherColumn(c Column, name string, rows []int32) Column {
	switch col := c.(type) {
	case *Int64Column:
		return col.Gather(name, rows)
	case *Float64Column:
		return col.Gather(name, rows)
	}
	return c.(*StringColumn).Gather(name, rows)
}

// GatherColumnDegree dispatches GatherDegree over the concrete column
// types.
func GatherColumnDegree(c Column, name string, rows []int32, degree int) Column {
	switch col := c.(type) {
	case *Int64Column:
		return col.GatherDegree(name, rows, degree)
	case *Float64Column:
		return col.GatherDegree(name, rows, degree)
	}
	return c.(*StringColumn).GatherDegree(name, rows, degree)
}

// GatherTable materializes the given rows of tbl, in order, under a new
// table name.
func GatherTable(name string, tbl *Table, rows []int32) *Table {
	cols := make([]Column, tbl.NumColumns())
	for i, c := range tbl.Columns() {
		cols[i] = GatherColumn(c, c.Name(), rows)
	}
	return MustNewTable(name, cols...)
}

// IotaRows returns [0, n) as row ids, filled by the worker pool — the
// "select everything" row vector scans and renames start from.
func IotaRows(n, degree int) []int32 {
	rows := make([]int32, n)
	parallel.For(n, gatherGrain, degree, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			rows[i] = int32(i)
		}
	})
	return rows
}

// Source is a relation whose columns are each read through a row list of
// their own: place i of a column is row rows[i] of its vectors, or row i
// when its list is nil. Every column has Len places. The engine's joined
// intermediates are Sources — a column is copied only where an operator
// needs its values lined up — and the evaluator chain and the sort-key
// extractor read them in place.
type Source interface {
	Len() int
	// Listed returns the named column and its row list, or a nil column
	// when the relation has none of that name.
	Listed(name string) (Column, []int32)
}

// TableRows is the Source over the rows of Table that Rows lists (nil:
// every row, in order).
type TableRows struct {
	Table *Table
	Rows  []int32
}

// Len implements Source.
func (t TableRows) Len() int {
	if t.Rows == nil {
		return t.Table.Rows()
	}
	return len(t.Rows)
}

// Listed implements Source.
func (t TableRows) Listed(name string) (Column, []int32) { return t.Table.Column(name), t.Rows }

// ComposeRows returns list read at the places sel names: list[sel[i]] for
// every i, filled by the worker pool. A nil list is every row, so the
// composition is sel itself, shared, not copied.
func ComposeRows(list, sel []int32, degree int) []int32 {
	if list == nil {
		return sel
	}
	out := make([]int32, len(sel))
	parallel.For(len(sel), gatherGrain, degree, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			out[i] = list[sel[i]]
		}
	})
	return out
}
