package evaluator

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/groupby"
	"blugpu/internal/vtime"
)

var testDegrees = []int{1, 2, 8}

// diffTable builds a table that exercises both key paths: few distinct
// int codes (narrow) plus long strings and a second int column (wide),
// with NULLs sprinkled through keys and payloads.
func diffTable(n int) *columnar.Table {
	kb := columnar.NewInt64Builder("k")
	gb := columnar.NewStringBuilder("g")
	wb := columnar.NewInt64Builder("w")
	vb := columnar.NewFloat64Builder("v")
	for r := 0; r < n; r++ {
		if r%11 == 5 {
			kb.AppendNull()
		} else {
			kb.Append(int64(r%13 - 6))
		}
		if r%17 == 2 {
			gb.AppendNull()
		} else {
			gb.Append(fmt.Sprintf("group-with-a-long-name-%04d", r%29))
		}
		wb.Append(int64(r) * 1_000_003)
		if r%5 == 0 {
			vb.AppendNull()
		} else {
			vb.Append(float64(r) * 0.25)
		}
	}
	return columnar.MustNewTable("t", kb.Build(), gb.Build(), wb.Build(), vb.Build())
}

func buildAt(t *testing.T, tbl *columnar.Table, sel *columnar.Bitmap, spec Spec, degree int) *Result {
	t.Helper()
	res, err := BuildInput(tbl, sel, spec, Deps{Model: vtime.Default(), Degree: degree})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameInput(t *testing.T, label string, seq, par *Result) {
	t.Helper()
	si, pi := seq.Input, par.Input
	if si.NumRows != pi.NumRows || si.KeyBytes != pi.KeyBytes || si.KeyBits != pi.KeyBits {
		t.Fatalf("%s: shape (%d,%d,%d) != (%d,%d,%d)",
			label, pi.NumRows, pi.KeyBytes, pi.KeyBits, si.NumRows, si.KeyBytes, si.KeyBits)
	}
	if si.EstGroups != pi.EstGroups {
		t.Fatalf("%s: EstGroups %d != %d", label, pi.EstGroups, si.EstGroups)
	}
	for i := range si.Keys {
		if si.Keys[i] != pi.Keys[i] {
			t.Fatalf("%s: Keys[%d] = %x, want %x", label, i, pi.Keys[i], si.Keys[i])
		}
	}
	for i := range si.WideKeys {
		if !bytes.Equal(si.WideKeys[i], pi.WideKeys[i]) {
			t.Fatalf("%s: WideKeys[%d] = %x, want %x", label, i, pi.WideKeys[i], si.WideKeys[i])
		}
	}
	for i := range si.Hashes {
		if si.Hashes[i] != pi.Hashes[i] {
			t.Fatalf("%s: Hashes[%d] = %x, want %x", label, i, pi.Hashes[i], si.Hashes[i])
		}
	}
	if len(si.Payloads) != len(pi.Payloads) {
		t.Fatalf("%s: %d payload vectors, want %d", label, len(pi.Payloads), len(si.Payloads))
	}
	for a := range si.Payloads {
		for i := range si.Payloads[a] {
			if si.Payloads[a][i] != pi.Payloads[a][i] {
				t.Fatalf("%s: Payloads[%d][%d] = %x, want %x",
					label, a, i, pi.Payloads[a][i], si.Payloads[a][i])
			}
		}
	}
	if len(seq.Fields) != len(par.Fields) {
		t.Fatalf("%s: %d fields, want %d", label, len(par.Fields), len(seq.Fields))
	}
	for i := range seq.Fields {
		sf, pf := seq.Fields[i], par.Fields[i]
		pf.Dict, sf.Dict = nil, nil
		if sf != pf {
			t.Fatalf("%s: field %d = %+v, want %+v", label, i, pf, sf)
		}
	}
}

// TestBuildInputDegreeMatchesSequential sweeps narrow and wide specs,
// with and without a selection, and proves the chain's functional output
// (keys, hashes, KMV estimate, payloads, field plan) is bit-identical at
// every degree. Modeled time legitimately varies with degree and is not
// compared.
func TestBuildInputDegreeMatchesSequential(t *testing.T) {
	specs := map[string]Spec{
		"narrow": {Keys: []string{"k"}, Aggs: []AggColumn{{Kind: groupby.Sum, Column: "v"}, {Kind: groupby.Count}}},
		"wide":   {Keys: []string{"k", "g", "w"}, Aggs: []AggColumn{{Kind: groupby.Count, Column: "v"}, {Kind: groupby.Min, Column: "v"}}},
	}
	for _, n := range []int{0, 1, 63, 1000, 4097} {
		tbl := diffTable(n)
		sel := columnar.NewBitmap(n)
		for i := 0; i < n; i++ {
			if i%3 != 1 {
				sel.Set(i)
			}
		}
		for name, spec := range specs {
			for _, s := range []*columnar.Bitmap{nil, sel} {
				seq := buildAt(t, tbl, s, spec, 1)
				for _, d := range testDegrees[1:] {
					par := buildAt(t, tbl, s, spec, d)
					label := fmt.Sprintf("%s n=%d sel=%v degree=%d", name, n, s != nil, d)
					sameInput(t, label, seq, par)
				}
			}
		}
	}
}

// TestDegreeDefaultsToGOMAXPROCS covers the Deps.Degree < 1 path: it must
// behave like an explicit positive degree, not like degree 1 only.
func TestDegreeDefaultsToGOMAXPROCS(t *testing.T) {
	tbl := diffTable(1000)
	spec := Spec{Keys: []string{"k", "g", "w"}, Aggs: []AggColumn{{Kind: groupby.Sum, Column: "v"}}}
	seq := buildAt(t, tbl, nil, spec, 1)
	def := buildAt(t, tbl, nil, spec, 0)
	sameInput(t, "default degree", seq, def)
}

// referenceCode is the key packing BuildInput ran before it went column
// at a time: one row, one field, through the Column interface. NULL is
// code 0 (floatNullCode in a wide float field); real integer and string
// codes shift up by one when the column has NULLs.
func referenceCode(tbl *columnar.Table, f KeyField, r int) uint64 {
	col := tbl.Column(f.Column)
	if col.IsNull(r) {
		if f.Type == columnar.Float64 {
			return floatNullCode
		}
		return 0
	}
	var code uint64
	switch c := col.(type) {
	case *columnar.StringColumn:
		code = uint64(c.Code(r))
	case *columnar.Int64Column:
		code = uint64(c.Int64(r) - f.MinI)
	case *columnar.Float64Column:
		return math.Float64bits(c.Float64(r))
	}
	if f.HasNull {
		code++
	}
	return code
}

// TestKeyPackingMatchesRowReference holds the column-at-a-time packers to
// the row-at-a-time reference, bit for bit: narrow and wide keys, every
// column type, columns with and without NULLs, a selection, every degree.
func TestKeyPackingMatchesRowReference(t *testing.T) {
	const n = 5_000
	tbl := diffTable(n)
	// Columns without a single NULL take the packers' no-shift arms.
	db, fb := columnar.NewStringBuilder("d"), columnar.NewFloat64Builder("f")
	for r := 0; r < n; r++ {
		db.Append(fmt.Sprintf("d%02d", r%23))
		fb.Append(float64(r%7) - 2.5)
	}
	tbl = columnar.MustNewTable("t", append(append([]columnar.Column{}, tbl.Columns()...), db.Build(), fb.Build())...)
	sel := columnar.NewBitmap(n)
	for r := 0; r < n; r += 3 {
		sel.Set(r)
	}
	for _, keys := range [][]string{
		{"k"}, {"g"}, {"d"}, {"k", "g"}, {"d", "k", "g"}, // narrow
		{"w", "k"}, {"v"}, {"f", "d"}, {"g", "v", "k", "w", "f"}, // wide
	} {
		for _, s := range []*columnar.Bitmap{nil, sel} {
			for _, degree := range testDegrees {
				res := buildAt(t, tbl, s, Spec{Keys: keys}, degree)
				rows := selectedRows(tbl, s, 1)
				for i, r := range rows {
					if res.Input.WideKeys == nil {
						var want uint64
						for _, f := range res.Fields {
							want |= referenceCode(tbl, f, int(r)) << uint(f.BitOffset)
						}
						if res.Input.Keys[i] != want {
							t.Fatalf("keys %v degree %d row %d: narrow key %x, want %x", keys, degree, r, res.Input.Keys[i], want)
						}
						continue
					}
					want := make([]byte, res.Input.KeyBytes)
					for _, f := range res.Fields {
						if code := referenceCode(tbl, f, int(r)); f.Bytes == 4 {
							binary.LittleEndian.PutUint32(want[f.ByteOffset:], uint32(code))
						} else {
							binary.LittleEndian.PutUint64(want[f.ByteOffset:], code)
						}
					}
					if !bytes.Equal(res.Input.WideKeys[i], want) {
						t.Fatalf("keys %v degree %d row %d: wide key %x, want %x", keys, degree, r, res.Input.WideKeys[i], want)
					}
				}
			}
		}
	}
}
