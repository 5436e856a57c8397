package columnar

import (
	"slices"

	"blugpu/internal/parallel"
)

// gatherGrain is the minimum rows per worker for parallel gathers: below
// it, goroutine handoff costs more than the copy itself.
const gatherGrain = 2048

// Gather builds a new column containing the given rows, in order. The
// executor uses it to materialize filtered, joined, sorted and limited
// intermediates without re-encoding dictionaries.
//
// Gather is the sequential reference; GatherDegree is the parallel path
// the engine threads its Degree into, and the differential tests assert
// the two produce identical columns.
func (c *Int64Column) Gather(name string, rows []int32) *Int64Column {
	data := make([]int64, len(rows))
	var nulls *Bitmap
	for i, r := range rows {
		data[i] = c.data[r]
		if c.IsNull(int(r)) {
			if nulls == nil {
				nulls = NewBitmap(len(rows))
			}
			nulls.Set(i)
		}
	}
	return &Int64Column{name: name, data: data, nulls: nulls}
}

// Gather builds a new column containing the given rows, in order.
func (c *Float64Column) Gather(name string, rows []int32) *Float64Column {
	data := make([]float64, len(rows))
	var nulls *Bitmap
	for i, r := range rows {
		data[i] = c.data[r]
		if c.IsNull(int(r)) {
			if nulls == nil {
				nulls = NewBitmap(len(rows))
			}
			nulls.Set(i)
		}
	}
	return &Float64Column{name: name, data: data, nulls: nulls}
}

// Gather builds a new column containing the given rows, in order, sharing
// the dictionary with the source column.
func (c *StringColumn) Gather(name string, rows []int32) *StringColumn {
	codes := make([]int32, len(rows))
	var nulls *Bitmap
	for i, r := range rows {
		codes[i] = c.codes[r]
		if c.IsNull(int(r)) {
			if nulls == nil {
				nulls = NewBitmap(len(rows))
			}
			nulls.Set(i)
		}
	}
	return &StringColumn{name: name, dict: c.dict, codes: codes, nulls: nulls}
}

// GatherDegree is the parallel Gather: disjoint row ranges are copied by
// the worker pool, each worker writing its own 64-aligned region of the
// output (and of the shared null bitmap), so the result is bit-identical
// to Gather at any degree.
func (c *Int64Column) GatherDegree(name string, rows []int32, degree int) *Int64Column {
	n := len(rows)
	data := make([]int64, n)
	if c.nulls == nil {
		parallel.For(n, gatherGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				data[i] = c.data[rows[i]]
			}
		})
		return &Int64Column{name: name, data: data}
	}
	nulls, found := NewBitmap(n), make([]bool, parallel.Workers(n, gatherGrain, degree))
	parallel.For(n, gatherGrain, degree, func(lo, hi, worker int) {
		any := false
		for i := lo; i < hi; i++ {
			data[i] = c.data[rows[i]]
			if c.IsNull(int(rows[i])) {
				nulls.Set(i)
				any = true
			}
		}
		found[worker] = any
	})
	return &Int64Column{name: name, data: data, nulls: keepNulls(nulls, found)}
}

// GatherDegree is the parallel Gather for float columns.
func (c *Float64Column) GatherDegree(name string, rows []int32, degree int) *Float64Column {
	n := len(rows)
	data := make([]float64, n)
	if c.nulls == nil {
		parallel.For(n, gatherGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				data[i] = c.data[rows[i]]
			}
		})
		return &Float64Column{name: name, data: data}
	}
	nulls, found := NewBitmap(n), make([]bool, parallel.Workers(n, gatherGrain, degree))
	parallel.For(n, gatherGrain, degree, func(lo, hi, worker int) {
		any := false
		for i := lo; i < hi; i++ {
			data[i] = c.data[rows[i]]
			if c.IsNull(int(rows[i])) {
				nulls.Set(i)
				any = true
			}
		}
		found[worker] = any
	})
	return &Float64Column{name: name, data: data, nulls: keepNulls(nulls, found)}
}

// GatherDegree is the parallel Gather for dictionary columns; the
// dictionary is shared with the source, only codes are copied.
func (c *StringColumn) GatherDegree(name string, rows []int32, degree int) *StringColumn {
	n := len(rows)
	codes := make([]int32, n)
	if c.nulls == nil {
		parallel.For(n, gatherGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				codes[i] = c.codes[rows[i]]
			}
		})
		return &StringColumn{name: name, dict: c.dict, codes: codes}
	}
	nulls, found := NewBitmap(n), make([]bool, parallel.Workers(n, gatherGrain, degree))
	parallel.For(n, gatherGrain, degree, func(lo, hi, worker int) {
		any := false
		for i := lo; i < hi; i++ {
			codes[i] = c.codes[rows[i]]
			if c.IsNull(int(rows[i])) {
				nulls.Set(i)
				any = true
			}
		}
		found[worker] = any
	})
	return &StringColumn{name: name, dict: c.dict, codes: codes, nulls: keepNulls(nulls, found)}
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
	case *StringColumn:
		return col.Gather(name, rows)
	default:
		// Generic fallback through Values.
		vals := make([]Value, len(rows))
		for i, r := range rows {
			vals[i] = c.Value(int(r))
		}
		out, err := ColumnFromValues(name, c.Type(), vals)
		if err != nil {
			panic(err)
		}
		return out
	}
}

// GatherColumnDegree dispatches GatherDegree over the concrete column
// types; the generic fallback materializes values on the worker pool.
func GatherColumnDegree(c Column, name string, rows []int32, degree int) Column {
	switch col := c.(type) {
	case *Int64Column:
		return col.GatherDegree(name, rows, degree)
	case *Float64Column:
		return col.GatherDegree(name, rows, degree)
	case *StringColumn:
		return col.GatherDegree(name, rows, degree)
	default:
		vals := make([]Value, len(rows))
		parallel.For(len(rows), gatherGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				vals[i] = c.Value(int(rows[i]))
			}
		})
		out, err := ColumnFromValues(name, c.Type(), vals)
		if err != nil {
			panic(err)
		}
		return out
	}
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
