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

func buildAt(t *testing.T, tbl *columnar.Table, rows []int32, spec Spec, degree int) *Result {
	t.Helper()
	res, err := BuildInput(columnar.TableRows{Table: tbl, Rows: rows}, spec, Deps{Model: vtime.Default(), Degree: degree})
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
		var sel []int32
		for i := 0; i < n; i++ {
			if i%3 != 1 {
				sel = append(sel, int32(i))
			}
		}
		for name, spec := range specs {
			for _, s := range [][]int32{nil, sel} {
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
// codes shift up by one when the column has NULLs. A float codes as its
// bits, -0 as +0 and every NaN as floatNaNCode.
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
		switch v := c.Float64(r); {
		case math.IsNaN(v):
			return floatNaNCode
		case v == 0:
			return 0
		default:
			return math.Float64bits(v)
		}
	}
	if f.HasNull {
		code++
	}
	return code
}

// referenceKey is the row-at-a-time key packer: table row r's key, kw
// words, as little-endian bytes. A narrow key ORs each field's code in at
// its bit offset; a wide one writes each code's Bits/8 bytes at byte
// BitOffset/8.
func referenceKey(tbl *columnar.Table, fields []KeyField, wide bool, kw, r int) []byte {
	key := make([]byte, 8*kw)
	var narrow uint64
	for _, f := range fields {
		switch code := referenceCode(tbl, f, r); {
		case !wide:
			narrow |= code << uint(f.BitOffset)
		case f.Bits == 32:
			binary.LittleEndian.PutUint32(key[f.BitOffset/8:], uint32(code))
		default:
			binary.LittleEndian.PutUint64(key[f.BitOffset/8:], code)
		}
	}
	if !wide {
		binary.LittleEndian.PutUint64(key, narrow)
	}
	return key
}

// rowBytes is key i of keys, kw words a key, as little-endian bytes.
func rowBytes(keys []uint64, kw, i int) []byte {
	b := make([]byte, 8*kw)
	for j, w := range keys[i*kw : (i+1)*kw] {
		binary.LittleEndian.PutUint64(b[8*j:], w)
	}
	return b
}

// TestKeyPackingMatchesRowReference holds the column-at-a-time packer to
// the row-at-a-time reference, bit for bit, padding bytes included: narrow
// and wide keys, every column type, columns with and without NULLs, a
// selection, every degree.
func TestKeyPackingMatchesRowReference(t *testing.T) {
	const n = 5_000
	tbl := diffTable(n)
	// Columns without a single NULL take the packer's no-shift arm.
	db, fb := columnar.NewStringBuilder("d"), columnar.NewFloat64Builder("f")
	for r := 0; r < n; r++ {
		db.Append(fmt.Sprintf("d%02d", r%23))
		fb.Append(float64(r%7) - 2.5)
	}
	tbl = columnar.MustNewTable("t", append(append([]columnar.Column{}, tbl.Columns()...), db.Build(), fb.Build())...)
	var sel []int32
	for r := 0; r < n; r += 3 {
		sel = append(sel, int32(r))
	}
	for _, keys := range [][]string{
		{"k"}, {"g"}, {"d"}, {"k", "g"}, {"d", "k", "g"}, // narrow
		{"w", "k"}, {"v"}, {"f", "d"}, {"g", "v", "k", "w", "f"}, // wide
	} {
		for _, s := range [][]int32{nil, sel} {
			for _, degree := range testDegrees {
				res := buildAt(t, tbl, s, Spec{Keys: keys}, degree)
				rows := s
				if rows == nil {
					rows = columnar.IotaRows(n, 1)
				}
				in := res.Input
				for i, r := range rows {
					got, want := rowBytes(in.Keys, in.KeyWords(), i), referenceKey(tbl, res.Fields, in.Wide(), in.KeyWords(), int(r))
					if !bytes.Equal(got, want) {
						t.Fatalf("keys %v degree %d row %d: key %x, want %x", keys, degree, r, got, want)
					}
				}
			}
		}
	}
}

// TestBuildInputRowsMatchGather: the chain over a row list is the chain
// over the table gathered from it — keys, hashes, payloads, the KMV
// estimate and the field plan, down to each int field's MinI and whether
// a NULL code is reserved, which the selected rows decide, not the whole
// column. Lists: empty, every row, sparse rows that skip every NULL and
// narrow the int range, and an unsorted permutation.
func TestBuildInputRowsMatchGather(t *testing.T) {
	const n = 3_000
	tbl := diffTable(n)
	all := columnar.IotaRows(n, 1)
	var sparse []int32
	for r := 0; r < n; r++ {
		if r%11 != 5 && r%17 != 2 && r%13 >= 3 && r%13 <= 8 {
			sparse = append(sparse, int32(r))
		}
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32((i*7919 + 13) % n)
	}
	lists := map[string][]int32{"empty": {}, "all": all, "sparse": sparse, "permutation": perm}
	specs := map[string]Spec{
		"int":         {Keys: []string{"k"}, Aggs: []AggColumn{{Kind: groupby.Sum, Column: "v"}, {Kind: groupby.Count}}},
		"string":      {Keys: []string{"g"}, Aggs: []AggColumn{{Kind: groupby.Min, Column: "v"}}},
		"narrow pair": {Keys: []string{"k", "g"}, Aggs: []AggColumn{{Kind: groupby.Count, Column: "v"}}},
		"wide pair":   {Keys: []string{"g", "w"}, Aggs: []AggColumn{{Kind: groupby.Max, Column: "w"}}},
	}
	for lname, rows := range lists {
		gathered := columnar.GatherTable("g", tbl, rows)
		for sname, spec := range specs {
			for _, degree := range testDegrees {
				label := fmt.Sprintf("%s rows, %s key, degree %d", lname, sname, degree)
				want := buildAt(t, gathered, nil, spec, degree)
				got := buildAt(t, tbl, rows, spec, degree)
				sameInput(t, label, want, got)
				if len(got.Input.Aggs) != len(want.Input.Aggs) {
					t.Fatalf("%s: %d aggregates, want %d", label, len(got.Input.Aggs), len(want.Input.Aggs))
				}
				for a := range want.Input.Aggs {
					if got.Input.Aggs[a] != want.Input.Aggs[a] {
						t.Fatalf("%s: aggregate %d is %+v, want %+v", label, a, got.Input.Aggs[a], want.Input.Aggs[a])
					}
				}
				for i, f := range want.Fields {
					if (f.Dict == nil) != (got.Fields[i].Dict == nil) || f.Dict != nil && f.Dict.DictSize() != got.Fields[i].Dict.DictSize() {
						t.Fatalf("%s: field %d decodes through a different dictionary", label, i)
					}
				}
			}
		}
	}
	// The sparse list is the one whose geometry the whole column would
	// get wrong.
	f := buildAt(t, tbl, sparse, specs["int"], 1).Fields[0]
	if f.MinI != -3 || f.HasNull || f.Bits != 3 {
		t.Fatalf("sparse int field: MinI %d, HasNull %v, %d bits; want -3, false, 3", f.MinI, f.HasNull, f.Bits)
	}
}

// twoParts is a Source of two tables, each read through its own list:
// the shape of a joined intermediate.
type twoParts struct {
	a, b         *columnar.Table
	aRows, bRows []int32
}

func (s twoParts) Len() int { return len(s.aRows) }

func (s twoParts) Listed(name string) (columnar.Column, []int32) {
	if c := s.a.Column(name); c != nil {
		return c, s.aRows
	}
	return s.b.Column(name), s.bRows
}

// TestBuildInputListPerColumn: keys and payloads read each through their
// own column's list build exactly the input of the chain over the table
// those lists gather, at every degree, narrow and wide.
func TestBuildInputListPerColumn(t *testing.T) {
	const n = 3_000
	whole := diffTable(n)
	a := columnar.MustNewTable("a", whole.Column("k"), whole.Column("v"))
	b := columnar.MustNewTable("b", whole.Column("g"), whole.Column("w"))
	var aRows, bRows []int32
	for i := 0; i < 2*n; i += 3 {
		aRows = append(aRows, int32(i%n))
		bRows = append(bRows, int32((i*7+1)%n))
	}
	gathered := columnar.MustNewTable("g",
		columnar.GatherColumn(a.Column("k"), "k", aRows), columnar.GatherColumn(b.Column("g"), "g", bRows),
		columnar.GatherColumn(b.Column("w"), "w", bRows), columnar.GatherColumn(a.Column("v"), "v", aRows))
	for name, spec := range map[string]Spec{
		"narrow": {Keys: []string{"k", "g"}, Aggs: []AggColumn{{Kind: groupby.Sum, Column: "v"}, {Kind: groupby.Count, Column: "w"}}},
		"wide":   {Keys: []string{"g", "w", "k"}, Aggs: []AggColumn{{Kind: groupby.Max, Column: "v"}}},
	} {
		want := buildAt(t, gathered, nil, spec, 1)
		for _, d := range testDegrees {
			got, err := BuildInput(twoParts{a, b, aRows, bRows}, spec, Deps{Model: vtime.Default(), Degree: d})
			if err != nil {
				t.Fatal(err)
			}
			sameInput(t, fmt.Sprintf("%s degree=%d", name, d), want, got)
		}
	}
}
