package evaluator

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"blugpu/internal/columnar"
)

// DecodeKey, DecodeWideKey and decodeCode are the value-at-a-time decoders
// the engine built its group-by output through before DecodeColumn; they
// stay as the oracle the typed decode is held to.

// DecodeKey reconstructs field f's column value from a narrow packed key.
func DecodeKey(key uint64, f KeyField) columnar.Value {
	code := (key >> uint(f.BitOffset)) & ((1 << uint(f.Bits)) - 1)
	return decodeCode(code, f)
}

// DecodeWideKey reconstructs field f's column value from a wide key.
func DecodeWideKey(key []byte, f KeyField) columnar.Value {
	seg := key[f.ByteOffset : f.ByteOffset+f.Bytes]
	var code uint64
	switch f.Bytes {
	case 4:
		code = uint64(binary.LittleEndian.Uint32(seg))
	default:
		code = binary.LittleEndian.Uint64(seg)
	}
	if f.Type == columnar.Float64 {
		if f.HasNull && code == floatNullCode {
			return columnar.NullValue(columnar.Float64)
		}
		return columnar.FloatValue(math.Float64frombits(code))
	}
	return decodeCode(code, f)
}

func decodeCode(code uint64, f KeyField) columnar.Value {
	if f.HasNull {
		if code == 0 {
			return columnar.NullValue(f.Type)
		}
		code--
	}
	switch f.Type {
	case columnar.String:
		return columnar.StringValue(f.Dict.Decode(int32(code)))
	case columnar.Float64:
		return columnar.FloatValue(math.Float64frombits(code))
	default:
		return columnar.IntValue(int64(code) + f.MinI)
	}
}

// sameAsValues holds a typed column to the builder's column over the
// oracle's values: name, type, every value and NULL, a nil bitmap exactly
// when no row is NULL, and the zero value stored under every NULL.
func sameAsValues(t *testing.T, label string, got columnar.Column, f KeyField, vals []columnar.Value) {
	t.Helper()
	want, err := columnar.ColumnFromValues(f.Column, f.Type, vals)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != want.Name() || got.Type() != want.Type() || got.Len() != want.Len() {
		t.Fatalf("%s: column %s %v x%d, want %s %v x%d", label,
			got.Name(), got.Type(), got.Len(), want.Name(), want.Type(), want.Len())
	}
	anyNull := false
	for i := range vals {
		if !got.Value(i).Equal(want.Value(i)) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got.Value(i), want.Value(i))
		}
		if !got.IsNull(i) {
			continue
		}
		anyNull = true
		switch c := got.(type) {
		case *columnar.Int64Column:
			if c.Int64(i) != 0 {
				t.Fatalf("%s: NULL row %d holds %d", label, i, c.Int64(i))
			}
		case *columnar.Float64Column:
			if math.Float64bits(c.Float64(i)) != 0 {
				t.Fatalf("%s: NULL row %d holds %v", label, i, c.Float64(i))
			}
		case *columnar.StringColumn:
			if c.Code(i) != 0 {
				t.Fatalf("%s: NULL row %d holds code %d", label, i, c.Code(i))
			}
		}
	}
	var nulls *columnar.Bitmap
	switch c := got.(type) {
	case *columnar.Int64Column:
		nulls = c.Nulls()
	case *columnar.Float64Column:
		nulls = c.Nulls()
	case *columnar.StringColumn:
		nulls = c.Nulls()
		if c.DictSize() != f.Dict.DictSize() {
			t.Fatalf("%s: dictionary re-encoded: %d entries, source has %d", label, c.DictSize(), f.Dict.DictSize())
		}
	}
	if (nulls != nil) != anyNull {
		t.Fatalf("%s: null bitmap present=%v, any NULL row=%v", label, nulls != nil, anyNull)
	}
}

// TestDecodeColumnMatchesValueOracle holds the column-at-a-time key decode
// to the value-at-a-time oracle: narrow and wide keys, every column type,
// fields with and without a reserved NULL code, packed widths of 1, 8, 9
// and 63 bits, zero keys and one key, a reversed permutation on the wide
// path, every degree.
func TestDecodeColumnMatchesValueOracle(t *testing.T) {
	const n = 5_000
	base := diffTable(n)
	db, fb := columnar.NewStringBuilder("d"), columnar.NewFloat64Builder("f")
	b1, b8, b9 := columnar.NewInt64Builder("b1"), columnar.NewInt64Builder("b8"), columnar.NewInt64Builder("b9")
	hi, lo := columnar.NewInt64Builder("hi"), columnar.NewInt64Builder("lo")
	for r := 0; r < n; r++ {
		db.Append(fmt.Sprintf("d%02d", r%23))
		fb.Append(float64(r%7) - 2.5)
		b1.Append(int64(r%2) - 7)
		b8.Append(int64(r % 256))
		b9.Append(int64(r%257) * -1)
		hi.Append(int64(r%2) * (1<<31 - 1)) // 31 bits
		lo.Append(int64(r%3) * (1<<31 - 1)) // 32 bits: hi ++ lo packs into 63
	}
	cols := append(append([]columnar.Column{}, base.Columns()...),
		db.Build(), fb.Build(), b1.Build(), b8.Build(), b9.Build(), hi.Build(), lo.Build())
	full := columnar.MustNewTable("t", cols...)
	wantBits := map[string]int{"b1": 1, "b8": 8, "b9": 9, "hi+lo": 63}

	for _, tbl := range []*columnar.Table{full, columnar.GatherTable("one", full, []int32{17}), columnar.GatherTable("none", full, nil)} {
		for _, keys := range [][]string{
			{"k"}, {"g"}, {"d"}, {"k", "g"}, {"d", "k", "g"}, {"b1"}, {"b8"}, {"b9"}, {"hi", "lo"}, // narrow
			{"w", "k"}, {"v"}, {"f", "d"}, {"g", "v", "k", "w", "f"}, // wide
		} {
			for _, degree := range testDegrees {
				res := buildAt(t, tbl, nil, Spec{Keys: keys}, degree)
				in := res.Input
				label := fmt.Sprintf("%s keys %v degree %d", tbl.Name(), keys, degree)
				name := keys[0]
				if len(keys) == 2 {
					name += "+" + keys[1]
				}
				if bits, ok := wantBits[name]; ok && tbl == full && in.KeyBits != bits {
					t.Fatalf("%s: KeyBits = %d, want %d", label, in.KeyBits, bits)
				}
				perm := make([]int32, in.NumRows)
				for i := range perm {
					perm[i] = int32(in.NumRows - 1 - i)
				}
				for _, f := range res.Fields {
					vals := make([]columnar.Value, in.NumRows)
					if in.WideKeys != nil {
						for i, g := range perm {
							vals[i] = DecodeWideKey(in.WideKeys[g], f)
						}
						sameAsValues(t, label+" field "+f.Column, f.DecodeWideColumn(in.WideKeys, perm, degree), f, vals)
						continue
					}
					for i, key := range in.Keys {
						vals[i] = DecodeKey(key, f)
					}
					sameAsValues(t, label+" field "+f.Column, f.DecodeColumn(in.Keys, degree), f, vals)
				}
			}
		}
	}
}
