package main

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"blugpu/internal/engine"
	"blugpu/internal/serve"
	"blugpu/internal/workload"
)

// cell is one result value. K is 'i' int, 'f' float, 's' string or
// 'n' NULL; a concrete struct (rather than any) so gob can cache it.
type cell struct {
	K byte
	I int64
	F float64
	S string
}

type table struct {
	Cols []string
	Rows [][]cell
}

// tableFromRows converts the row-major payload serve.TableRows builds
// (int64 / float64 / string / nil) or its JSON decoding (json.Number in
// place of the numbers) into a table.
func tableFromRows(cols []string, rows [][]any) (table, error) {
	t := table{Cols: cols, Rows: make([][]cell, len(rows))}
	for i, row := range rows {
		out := make([]cell, len(row))
		for j, v := range row {
			switch x := v.(type) {
			case nil:
				out[j] = cell{K: 'n'}
			case int64:
				out[j] = cell{K: 'i', I: x}
			case float64:
				out[j] = cell{K: 'f', F: x}
			case string:
				out[j] = cell{K: 's', S: x}
			case json.Number:
				if n, err := x.Int64(); err == nil {
					out[j] = cell{K: 'i', I: n}
				} else if f, err := x.Float64(); err == nil {
					out[j] = cell{K: 'f', F: f}
				} else {
					return t, fmt.Errorf("row %d col %d: bad number %q", i, j, x)
				}
			default:
				return t, fmt.Errorf("row %d col %d: unexpected %T", i, j, v)
			}
		}
		t.Rows[i] = out
	}
	return t, nil
}

// floatTol is the relative tolerance on float cells. Byte equality is
// the wrong test: parallel float sums differ from the serial reference
// in the last ulp on about a third of the statements.
const floatTol = 1e-9

// compareTables reports the first difference between a reference and a
// result: columns and row count must match and every cell must match
// row for row — integers, strings and NULL exactly, floats to floatTol.
func compareTables(ref, got table) error {
	if len(ref.Cols) != len(got.Cols) {
		return fmt.Errorf("%d columns, want %d", len(got.Cols), len(ref.Cols))
	}
	for j := range ref.Cols {
		if ref.Cols[j] != got.Cols[j] {
			return fmt.Errorf("column %d is %q, want %q", j, got.Cols[j], ref.Cols[j])
		}
	}
	if len(ref.Rows) != len(got.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(ref.Rows))
	}
	for i, want := range ref.Rows {
		have := got.Rows[i]
		if len(have) != len(want) {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(have), len(want))
		}
		for j, w := range want {
			if !cellEqual(w, have[j]) {
				return fmt.Errorf("row %d col %s: got %s, want %s", i, ref.Cols[j], have[j], w)
			}
		}
	}
	return nil
}

func cellEqual(want, got cell) bool {
	switch want.K {
	case 'n':
		return got.K == 'n'
	case 's':
		return got.K == 's' && got.S == want.S
	case 'i':
		return got.K == 'i' && got.I == want.I
	case 'f':
		// A float that happens to be integral reads back from JSON as
		// an integer token.
		var g float64
		switch got.K {
		case 'f':
			g = got.F
		case 'i':
			g = float64(got.I)
		default:
			return false
		}
		if g == want.F {
			return true
		}
		return math.Abs(g-want.F) <= floatTol*math.Max(math.Abs(g), math.Abs(want.F))
	}
	return false
}

func (c cell) String() string {
	switch c.K {
	case 'n':
		return "NULL"
	case 'i':
		return fmt.Sprint(c.I)
	case 'f':
		return fmt.Sprint(c.F)
	}
	return fmt.Sprintf("%q", c.S)
}

func tableFromResult(res *engine.Result) (table, error) {
	return tableFromRows(res.Columns, serve.TableRows(res.Table.Columns()))
}

// references returns the expected answer of every statement, keyed by
// statement ID, computed by a CPU-only single-threaded engine
// (Devices 0, Degree 1) — the slowest, simplest path through the
// program, sharing no GPU, scheduler, fusion or parallel-merge code
// with the runs being checked. The dataset is a pure function of
// (sf, dataSeed), so the answers are cached under outDir for later runs in
// the same checkout; the key covers the statement texts.
func references(sf float64, stmts []workload.Query) (map[string]table, error) {
	h := sha256.New()
	fmt.Fprintf(h, "sf=%g seed=%d\n", sf, dataSeed)
	for _, q := range stmts {
		fmt.Fprintf(h, "%s\x00%s\x00", q.ID, q.SQL)
	}
	path := filepath.Join(outDir, fmt.Sprintf("refs-%x.gob", h.Sum(nil)[:8]))
	refs := make(map[string]table)
	if f, err := os.Open(path); err == nil {
		err = gob.NewDecoder(f).Decode(&refs)
		f.Close()
		if err == nil && len(refs) == len(stmts) {
			return refs, nil
		}
		refs = make(map[string]table) // unreadable cache: recompute
	}

	eng, err := engine.New(engine.Config{Devices: 0, Degree: 1})
	if err != nil {
		return nil, err
	}
	if err := workload.Generate(sf, dataSeed).RegisterAll(eng); err != nil {
		return nil, err
	}
	for _, q := range stmts {
		res, err := eng.QueryNamed(q.ID, q.SQL)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.ID, err)
		}
		if refs[q.ID], err = tableFromResult(res); err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.ID, err)
		}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(outDir, "refs-*.tmp")
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if err := gob.NewEncoder(tmp).Encode(refs); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		return nil, err
	}
	return refs, os.Rename(tmp.Name(), path)
}
