package evaluator

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/vtime"
)

// fuzzFloats are the float key values a cell byte picks among: both
// zeros, both NaN signs, the infinities, the smallest subnormal and
// ordinary values.
var fuzzFloats = []float64{0, math.Copysign(0, -1), math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, 1.5, -2.5, 1e300}

// fuzzIntSteps scale an int key's cell byte, so its 256 values span about
// 8, 32, 63 and 64 bits.
var fuzzIntSteps = []uint64{1, 1<<24 + 1, 1<<55 + 3, 0x0101010101010101}

// fuzzKeyTable builds a table of 1 to 4 key columns from shape and data.
// Column c takes shape's bits 2+4c.. : three for its kind — a string, a
// float, an int of each fuzzIntSteps span, or an int of the extremes
// MinInt64, -1, 0, 1 and MaxInt64 — and one that lets cells be NULL. Row r
// reads cell byte data[r·cols+c].
func fuzzKeyTable(shape uint32, data []byte) (*columnar.Table, []string) {
	ncols := 1 + int(shape&3)
	n := min(len(data)/ncols, 4096)
	cols := make([]columnar.Column, ncols)
	keys := make([]string, ncols)
	for c := range cols {
		kind, nullable := shape>>(2+4*c)&7, shape>>(5+4*c)&1 == 1
		name := fmt.Sprintf("c%d", c)
		keys[c] = name
		cell := func(r int) (byte, bool) {
			b := data[r*ncols+c]
			return b, nullable && b%16 == 15
		}
		switch {
		case kind <= 1:
			sb := columnar.NewStringBuilder(name)
			for r := 0; r < n; r++ {
				if b, null := cell(r); null {
					sb.AppendNull()
				} else {
					sb.Append(fmt.Sprintf("s%d", uint32(b)%(11+kind*90)))
				}
			}
			cols[c] = sb.Build()
		case kind == 2:
			fb := columnar.NewFloat64Builder(name)
			for r := 0; r < n; r++ {
				if b, null := cell(r); null {
					fb.AppendNull()
				} else if int(b) < 4*len(fuzzFloats) {
					fb.Append(fuzzFloats[int(b)%len(fuzzFloats)])
				} else {
					fb.Append(float64(b) - 200)
				}
			}
			cols[c] = fb.Build()
		default:
			ib := columnar.NewInt64Builder(name)
			for r := 0; r < n; r++ {
				b, null := cell(r)
				switch {
				case null:
					ib.AppendNull()
				case kind == 7:
					ib.Append([]int64{math.MinInt64, -1, 0, 1, math.MaxInt64}[b%5])
				default:
					ib.Append(int64(uint64(b) * fuzzIntSteps[kind-3]))
				}
			}
			cols[c] = ib.Build()
		}
	}
	return columnar.MustNewTable("t", cols...), keys
}

// FuzzKeyWordsMatchReference holds the key format to its row-at-a-time
// and value-at-a-time references over random key column mixes — strings,
// ints and floats; NULLs; ±0 and NaN; int spans around 32, 63 and 64 bits
// — over the whole table and read through a row list, at degrees 1 and 8:
// BuildInput's key words, read as little-endian bytes, are referenceKey's,
// and DecodeColumn gives every field's value to the bit as DecodeKey or
// DecodeWideKey does.
func FuzzKeyWordsMatchReference(f *testing.F) {
	seed := make([]byte, 0, 4*64)
	for r := 0; r < 64; r++ {
		seed = append(seed, byte(r*37), byte(r), byte(255-r*5), byte(r*r))
	}
	// mix packs column kinds into a shape; a kind plus 8 is nullable.
	mix := func(kinds ...uint32) uint32 {
		shape := uint32(len(kinds) - 1)
		for c, k := range kinds {
			shape |= k << (2 + 4*c)
		}
		return shape
	}
	for _, kinds := range [][]uint32{
		{0}, {2}, {8 + 2}, {3}, {8 + 4}, {5}, {7}, {8 + 7}, // one column
		{0, 3}, {8, 8 + 4}, {2, 0}, {1, 5}, {0, 5, 2}, {7, 0}, {8 + 1, 8 + 4, 8 + 6, 8 + 2}, // several
	} {
		f.Add(mix(kinds...), seed)
	}
	f.Add(uint32(0x7b), []byte{})
	f.Fuzz(func(t *testing.T, shape uint32, data []byte) {
		tbl, keys := fuzzKeyTable(shape, data)
		var list []int32
		for r := tbl.Rows() - 1; r >= 0; r-- {
			if r%3 != 1 {
				list = append(list, int32(r))
			}
		}
		for _, rows := range [][]int32{nil, list} {
			for _, degree := range []int{1, 8} {
				res, err := BuildInput(columnar.TableRows{Table: tbl, Rows: rows}, Spec{Keys: keys}, Deps{Model: vtime.Default(), Degree: degree})
				if err != nil {
					if strings.Contains(err.Error(), "spans every int64 value and holds NULL") {
						continue
					}
					t.Fatal(err)
				}
				in, kw := res.Input, res.Input.KeyWords()
				label := fmt.Sprintf("shape %#x list %v degree %d", shape, rows != nil, degree)
				if len(in.Keys) != in.NumRows*kw {
					t.Fatalf("%s: %d key words for %d rows of %d", label, len(in.Keys), in.NumRows, kw)
				}
				for i := 0; i < in.NumRows; i++ {
					r := i
					if rows != nil {
						r = int(rows[i])
					}
					if got, want := rowBytes(in.Keys, kw, i), referenceKey(tbl, res.Fields, in.Wide(), kw, r); !bytes.Equal(got, want) {
						t.Fatalf("%s row %d: key %x, want %x", label, r, got, want)
					}
				}
				for _, field := range res.Fields {
					got, want := field.DecodeColumn(in.Keys, kw, degree), oracleValues(in, field)
					for i, w := range want {
						g := got.Value(i)
						same := g.Equal(w)
						if g.Type == columnar.Float64 && !g.Null && !w.Null {
							same = math.Float64bits(g.F) == math.Float64bits(w.F)
						}
						if !same {
							t.Fatalf("%s field %s row %d: decoded %v, want %v", label, field.Column, i, g, w)
						}
					}
				}
			}
		}
	})
}
