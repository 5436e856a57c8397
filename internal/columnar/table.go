package columnar

import (
	"errors"
	"fmt"
)

// Table is an immutable columnar table.
type Table struct {
	name    string
	columns []Column
	byName  map[string]int
	rows    int
}

// NewTable assembles a table from columns, which must share a row count.
func NewTable(name string, columns ...Column) (*Table, error) {
	if len(columns) == 0 {
		return nil, errors.New("columnar: table needs at least one column")
	}
	rows := columns[0].Len()
	byName := make(map[string]int, len(columns))
	for i, c := range columns {
		if c.Len() != rows {
			return nil, fmt.Errorf("columnar: column %q has %d rows, want %d", c.Name(), c.Len(), rows)
		}
		if _, dup := byName[c.Name()]; dup {
			return nil, fmt.Errorf("columnar: duplicate column %q", c.Name())
		}
		byName[c.Name()] = i
	}
	return &Table{name: name, columns: columns, byName: byName, rows: rows}, nil
}

// MustNewTable is NewTable that panics on error (generator/test use).
func MustNewTable(name string, columns ...Column) *Table {
	t, err := NewTable(name, columns...)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Rows returns the row count.
func (t *Table) Rows() int { return t.rows }

// NumColumns returns the column count.
func (t *Table) NumColumns() int { return len(t.columns) }

// Columns returns the columns in declaration order.
func (t *Table) Columns() []Column { return t.columns }

// Column returns the named column, or nil.
func (t *Table) Column(name string) Column {
	if i, ok := t.byName[name]; ok {
		return t.columns[i]
	}
	return nil
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// HasColumn reports whether the table has the named column.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// SizeBytes estimates the table's in-memory footprint: the number the
// optimizer uses against device-memory thresholds.
func (t *Table) SizeBytes() int64 {
	var total int64
	for _, c := range t.columns {
		total += int64(c.Len()) * int64(c.Type().Width())
		if col, ok := c.(*StringColumn); ok {
			for _, s := range col.dict {
				total += int64(len(s))
			}
		}
	}
	return total
}

// Row materializes row i as values in column order (slow path for result
// display and tests).
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.columns))
	for c, col := range t.columns {
		out[c] = col.Value(i)
	}
	return out
}
