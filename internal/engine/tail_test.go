package engine

// The aggregate → sort tail against its boxed oracles: the group-by output
// and the sort keys are built column at a time over typed vectors, and the
// value-at-a-time code they replaced stays here as what they are held to.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"blugpu/internal/bsort"
	"blugpu/internal/columnar"
	"blugpu/internal/evaluator"
	"blugpu/internal/groupby"
	"blugpu/internal/plan"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

// --- group-by output ---

// keyBytes is key g of keys, kw words a key, as little-endian bytes.
func keyBytes(keys []uint64, kw, g int) []byte {
	b := make([]byte, 8*kw)
	for j, w := range keys[g*kw : (g+1)*kw] {
		binary.LittleEndian.PutUint64(b[8*j:], w)
	}
	return b
}

// referenceAggOutput is buildAggOutput as it was — a sort.Slice over a
// permutation, builders appended one group at a time — except for the key
// decode: the comparison-sorted keys go through the evaluator's typed
// decode, which its own TestDecodeColumnMatchesValueOracle holds to the
// boxed value-at-a-time decoder. What is checked here is the group order
// — a narrow key's word, a wide key's little-endian bytes — and the
// aggregates' finalization.
func referenceAggOutput(chain *evaluator.Result, in *groupby.Input, out *groupby.Result, items []aggPlanItem) (*columnar.Table, error) {
	groups, kw := out.Groups, in.KeyWords()
	perm := columnar.IotaRows(groups, 1)
	var tcols []columnar.Column
	if in.Wide() {
		sort.Slice(perm, func(a, b int) bool {
			return bytes.Compare(keyBytes(out.Keys, kw, int(perm[a])), keyBytes(out.Keys, kw, int(perm[b]))) < 0
		})
	} else {
		sort.Slice(perm, func(a, b int) bool { return out.Keys[perm[a]] < out.Keys[perm[b]] })
	}
	sorted := make([]uint64, 0, len(out.Keys))
	for _, src := range perm {
		sorted = append(sorted, out.Keys[int(src)*kw:int(src+1)*kw]...)
	}
	for _, field := range chain.Fields {
		tcols = append(tcols, field.DecodeColumn(sorted, kw, 1))
	}
	for _, item := range items {
		spec := in.Aggs[item.sumIdx]
		words := out.AggWords[item.sumIdx]
		switch {
		case item.fn == plan.AggAvg:
			counts := out.AggWords[item.countIdx]
			b := columnar.NewFloat64Builder(item.out)
			for g := 0; g < groups; g++ {
				c := counts[perm[g]]
				if c == 0 {
					b.AppendNull()
					continue
				}
				var sum float64
				if spec.Type == columnar.Float64 {
					sum = math.Float64frombits(words[perm[g]])
				} else {
					sum = float64(int64(words[perm[g]]))
				}
				b.Append(sum / float64(c))
			}
			tcols = append(tcols, b.Build())
		case spec.Type == columnar.Float64 && spec.Kind != groupby.Count:
			b := columnar.NewFloat64Builder(item.out)
			for g := 0; g < groups; g++ {
				v := math.Float64frombits(words[perm[g]])
				if (spec.Kind == groupby.Min && math.IsInf(v, 1)) ||
					(spec.Kind == groupby.Max && math.IsInf(v, -1)) {
					b.AppendNull()
					continue
				}
				b.Append(v)
			}
			tcols = append(tcols, b.Build())
		default:
			b := columnar.NewInt64Builder(item.out)
			for g := 0; g < groups; g++ {
				v := int64(words[perm[g]])
				if (spec.Kind == groupby.Min && v == math.MaxInt64) ||
					(spec.Kind == groupby.Max && v == math.MinInt64) {
					b.AppendNull()
					continue
				}
				b.Append(v)
			}
			tcols = append(tcols, b.Build())
		}
	}
	return columnar.NewTable("groupby", tcols...)
}

// sameVectors goes past sameTable's rendered values: the typed vectors
// must match the builders' word for word — the zero value under every
// NULL, a nil bitmap when no row is NULL — since content hashes and the
// device upload read the vectors, not the values.
func sameVectors(t *testing.T, got, want *columnar.Table) {
	t.Helper()
	sameTable(t, got, want)
	sameNulls := func(name string, g, w *columnar.Bitmap) {
		if (g == nil) != (w == nil) || (g != nil && !slices.Equal(g.Words(), w.Words())) {
			t.Fatalf("column %q: null bitmap %v, want %v", name, g, w)
		}
	}
	for i, gc := range got.Columns() {
		switch g := gc.(type) {
		case *columnar.Int64Column:
			w := want.Columns()[i].(*columnar.Int64Column)
			sameNulls(g.Name(), g.Nulls(), w.Nulls())
			if !slices.Equal(g.Data(), w.Data()) {
				t.Fatalf("column %q: int vector differs from the builder's", g.Name())
			}
		case *columnar.Float64Column:
			w := want.Columns()[i].(*columnar.Float64Column)
			sameNulls(g.Name(), g.Nulls(), w.Nulls())
			for r, v := range g.Data() {
				if math.Float64bits(v) != math.Float64bits(w.Data()[r]) {
					t.Fatalf("column %q row %d: %v, want %v", g.Name(), r, v, w.Data()[r])
				}
			}
		case *columnar.StringColumn:
			sameNulls(g.Name(), g.Nulls(), want.Columns()[i].(*columnar.StringColumn).Nulls())
		}
	}
}

// tailTable has a key column for every packed width the radix passes
// split on (1, 8, 9 bits; hi ++ lo is 63), keys of each type with and
// without NULLs, and payloads that are NULL for the whole of i8's group 5
// and kn's NULL group, so MIN, MAX and AVG each finalize to NULL there.
func tailTable(n int) *columnar.Table {
	i1, i8, i9 := columnar.NewInt64Builder("i1"), columnar.NewInt64Builder("i8"), columnar.NewInt64Builder("i9")
	hi, lo, kn := columnar.NewInt64Builder("hi"), columnar.NewInt64Builder("lo"), columnar.NewInt64Builder("kn")
	s, sn := columnar.NewStringBuilder("s"), columnar.NewStringBuilder("sn")
	f, fn := columnar.NewFloat64Builder("f"), columnar.NewFloat64Builder("fn")
	v, w := columnar.NewInt64Builder("v"), columnar.NewFloat64Builder("w")
	for r := 0; r < n; r++ {
		i1.Append(int64(r%2) - 7)
		i8.Append(int64(r % 256))
		i9.Append(-int64(r % 257))
		hi.Append(int64(r%2) * (1<<31 - 1))
		lo.Append(int64(r%3) * (1<<31 - 1))
		s.Append(fmt.Sprintf("s%02d", (r*7)%23))
		f.Append(float64(r%11) - 5.5)
		nullKey := r%19 == 4
		if nullKey {
			kn.AppendNull()
			sn.AppendNull()
			fn.AppendNull()
		} else {
			kn.Append(int64(r%31) - 15)
			sn.Append(fmt.Sprintf("name-%d", r%5))
			fn.Append(float64(r%3) * -0.5)
		}
		if nullKey || r%256 == 5 || r%7 == 3 {
			v.AppendNull()
			w.AppendNull()
		} else {
			v.Append(int64(r%101) - 50)
			w.Append(float64(r%97)/4 - 9)
		}
	}
	return columnar.MustNewTable("t", i1.Build(), i8.Build(), i9.Build(), hi.Build(), lo.Build(), kn.Build(),
		s.Build(), sn.Build(), f.Build(), fn.Build(), v.Build(), w.Build())
}

// TestAggOutputMatchesBoxedOracle holds the typed group-by output to the
// boxed one over narrow and wide keys, string / int / float fields with
// and without a NULL code, packed widths of 1, 8, 9 and 63 bits, zero
// groups and one, AVG over no rows and MIN / MAX of all-NULL groups, at
// every degree. The groups arrive in Go map order, scrambled per run.
func TestAggOutputMatchesBoxedOracle(t *testing.T) {
	full := tailTable(3_000)
	var aggs []plan.AggItem
	for _, fn := range []plan.AggFunc{plan.AggSum, plan.AggCount, plan.AggMin, plan.AggMax, plan.AggAvg} {
		for _, col := range []string{"v", "w"} {
			aggs = append(aggs, plan.AggItem{Func: fn, Column: col, Out: fmt.Sprintf("%v_%s", fn, col)})
		}
	}
	aggs = append(aggs, plan.AggItem{Func: plan.AggCount, Out: "n"})
	cols, items, err := lowerAggs(aggs)
	if err != nil {
		t.Fatal(err)
	}
	wantBits := map[string]int{"i1": 1, "i8": 8, "i9": 9, "hi+lo": 63}
	engines := map[int]*Engine{1: joinEngine(t, 1), 2: joinEngine(t, 2), 8: joinEngine(t, 8)}
	for _, tbl := range []*columnar.Table{full, columnar.GatherTable("one", full, []int32{4}), columnar.GatherTable("none", full, nil)} {
		for _, keys := range [][]string{
			{"i1"}, {"i8"}, {"i9"}, {"hi", "lo"}, {"kn"}, {"s"}, {"sn", "kn"}, {"s", "i8", "kn"}, // narrow
			{"f", "s"}, {"fn", "sn", "kn"}, {"hi", "lo", "i9"}, // wide
		} {
			for _, degree := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%v/degree=%d", tbl.Name(), keys, degree), func(t *testing.T) {
					chain, err := evaluator.BuildInput(columnar.TableRows{Table: tbl}, evaluator.Spec{Keys: keys, Aggs: cols},
						evaluator.Deps{Model: vtime.Default(), Degree: degree})
					if err != nil {
						t.Fatal(err)
					}
					in := chain.Input
					if bits, ok := wantBits[strings.Join(keys, "+")]; ok && tbl == full && in.KeyBits != bits {
						t.Fatalf("KeyBits = %d, want %d", in.KeyBits, bits)
					}
					out, err := groupby.RunCPU(in, degree, vtime.Default())
					if err != nil {
						t.Fatal(err)
					}
					if tbl.Rows() < 2 && out.Groups != tbl.Rows() {
						t.Fatalf("%d groups over %d rows", out.Groups, tbl.Rows())
					}
					got, err := engines[degree].buildAggOutput(chain, in, out, items)
					if err != nil {
						t.Fatal(err)
					}
					want, err := referenceAggOutput(chain, in, out, items)
					if err != nil {
						t.Fatal(err)
					}
					sameVectors(t, got, want)
				})
			}
		}
	}
}

// TestRadixOrderMatchesSort: over distinct keys of every width the pass
// count splits on, the radix order is sort.Slice's, the permutation names
// each key's source, and the caller's key vector is left alone.
func TestRadixOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, keyBits := range []int{0, 1, 7, 8, 9, 16, 17, 40, 63, 64} {
		for _, n := range []int{0, 1, 2, 3, 1_000, 70_000} {
			mask := ^uint64(0)
			if keyBits > 0 && keyBits < 64 {
				mask = 1<<uint(keyBits) - 1
			}
			seen := map[uint64]bool{}
			var keys []uint64
			for tries := 0; len(keys) < n && tries < 4*n+4; tries++ {
				// Dense low digits and sparse high ones: some passes see
				// every key share a digit, and are skipped.
				k := (rng.Uint64()&0xFFFF | uint64(rng.Intn(3))<<56) & mask
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
			before := slices.Clone(keys)
			for _, degree := range []int{1, 8} {
				sorted, perm := radixOrder(keys, keyBits, degree)
				if !slices.Equal(keys, before) {
					t.Fatalf("bits %d n %d: radixOrder wrote to its input", keyBits, len(keys))
				}
				want := make([]int32, len(keys))
				for i := range want {
					want[i] = int32(i)
				}
				sort.Slice(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })
				if !slices.Equal(perm, want) {
					t.Fatalf("bits %d n %d degree %d: permutation differs from sort.Slice's", keyBits, len(keys), degree)
				}
				for i, g := range perm {
					if sorted[i] != keys[g] {
						t.Fatalf("bits %d n %d: sorted[%d] = %x, key %d is %x", keyBits, len(keys), i, sorted[i], g, keys[g])
					}
				}
			}
		}
	}
}

// --- sort keys ---

// referenceSortKeys is encodeSortKeys as it was: one []byte per row, per
// column a 4-byte NULL flag (NULLs first) then the value's big-endian
// order-preserving encoding, DESC inverting each part.
func referenceSortKeys(tbl *columnar.Table, keys []plan.SortKey) [][]byte {
	put32 := func(dst []byte, v uint32, desc bool) []byte {
		if desc {
			v = ^v
		}
		return binary.BigEndian.AppendUint32(dst, v)
	}
	put64 := func(dst []byte, u uint64, desc bool) []byte {
		if desc {
			u = ^u
		}
		return binary.BigEndian.AppendUint64(dst, u)
	}
	out := make([][]byte, tbl.Rows())
	for r := range out {
		var key []byte
		for _, k := range keys {
			col := tbl.Column(k.Column)
			null := col.IsNull(r)
			flag := uint32(1)
			if null {
				flag = 0
			}
			key = put32(key, flag, k.Desc)
			switch c := col.(type) {
			case *columnar.Int64Column:
				v := int64(0)
				if !null {
					v = c.Int64(r)
				}
				key = put64(key, uint64(v)^(1<<63), k.Desc)
			case *columnar.Float64Column:
				v := 0.0
				if !null {
					v = c.Float64(r)
				}
				b := math.Float64bits(v)
				if b>>63 == 1 {
					b = ^b
				} else {
					b |= 1 << 63
				}
				key = put64(key, b, k.Desc)
			case *columnar.StringColumn:
				code := uint32(0)
				if !null {
					code = uint32(c.Code(r))
				}
				key = put32(key, code, k.Desc)
			}
		}
		out[r] = key
	}
	return out
}

// nullAwareKeys is ref, the byte keys of tbl under keys, as sortKeyWords
// lays them out: a column's 4-byte NULL flag is dropped when no row of
// tbl is NULL in it.
func nullAwareKeys(tbl *columnar.Table, keys []plan.SortKey, ref [][]byte) [][]byte {
	type part struct {
		width   int // bytes of the column's segments after its flag
		flagged bool
	}
	parts := make([]part, len(keys))
	for i, k := range keys {
		col := tbl.Column(k.Column)
		parts[i].width = 8
		if col.Type() == columnar.String {
			parts[i].width = 4
		}
		for r := 0; r < tbl.Rows() && !parts[i].flagged; r++ {
			parts[i].flagged = col.IsNull(r)
		}
	}
	out := make([][]byte, len(ref))
	for r, key := range ref {
		var view []byte
		for _, p := range parts {
			if p.flagged {
				view = append(view, key[:4]...)
			}
			view = append(view, key[4:4+p.width]...)
			key = key[4+p.width:]
		}
		out[r] = view
	}
	return out
}

// sortRowBytes is the fuzz wire format: a flag byte (bit 0 / 1 / 2 = the
// int / float / string is NULL), the int and the float's bits
// little-endian, and a dictionary pick.
const sortRowBytes = 18

var sortLabels = []string{"", "a", "ab", "b", "zz"}

func sortRow(flags byte, i int64, f float64, s byte) []byte {
	out := binary.LittleEndian.AppendUint64([]byte{flags}, uint64(i))
	return append(binary.LittleEndian.AppendUint64(out, math.Float64bits(f)), s)
}

// sortTable decodes at most 512 rows into columns i, f and s.
func sortTable(b []byte) *columnar.Table {
	ib, fb, sb := columnar.NewInt64Builder("i"), columnar.NewFloat64Builder("f"), columnar.NewStringBuilder("s")
	for n := 0; len(b) >= sortRowBytes && n < 512; b, n = b[sortRowBytes:], n+1 {
		if b[0]&1 != 0 {
			ib.AppendNull()
		} else {
			ib.Append(int64(binary.LittleEndian.Uint64(b[1:])))
		}
		if b[0]&2 != 0 {
			fb.AppendNull()
		} else {
			fb.Append(math.Float64frombits(binary.LittleEndian.Uint64(b[9:])))
		}
		if b[0]&4 != 0 {
			sb.AppendNull()
		} else {
			sb.Append(sortLabels[int(b[17])%len(sortLabels)])
		}
	}
	return columnar.MustNewTable("t", ib.Build(), fb.Build(), sb.Build())
}

// sortKeysFor reads a key list out of one byte: bits 0-2 are DESC for i,
// f and s, bits 3-4 rotate the three, bits 5-6 pick how many sort.
func sortKeysFor(shape byte) []plan.SortKey {
	all := []plan.SortKey{{Column: "i", Desc: shape&1 != 0}, {Column: "f", Desc: shape&2 != 0}, {Column: "s", Desc: shape&4 != 0}}
	rot := int(shape>>3) % 3
	all = append(all[rot:], all[:rot]...)
	return all[:1+int(shape>>5)%3]
}

// FuzzSortKeysMatchReference: over random tables — NULLs, negative ints,
// ±0, ±Inf and NaN floats, ASC / DESC mixes, one to three key columns —
// every (row, depth) segment of the flat buffer is the NULL-aware view of
// the byte-key oracle's (no flag for a column with no NULL), at any degree
// and through a row list, and the sort over it returns the permutation a
// stable comparison sort of the byte keys themselves, every flag kept,
// does: dropping a constant flag moves no row.
func FuzzSortKeysMatchReference(f *testing.F) {
	// seed has NULLs in every column, intNulls in the int column only,
	// noNulls in none.
	var seed, intNulls, noNulls []byte
	for r, fl := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -2.5, 2.5, 1e300} {
		seed = append(seed, sortRow(byte(r%8), int64(r-4)*math.MaxInt64/3, fl, byte(r))...)
		seed = append(seed, sortRow(0, int64(r%2), fl, byte(r%2))...)
		intNulls = append(intNulls, sortRow(byte(r%2), int64(r-4), fl, byte(r%3))...)
		noNulls = append(noNulls, sortRow(0, int64(r-4)*math.MaxInt64/3, fl, byte(r))...)
		noNulls = append(noNulls, sortRow(0, int64(r%2), -fl, byte(r%2))...)
	}
	for _, shape := range []byte{0, 0b0100101, 0b1001010, 0b1010111, 0b0111000} {
		f.Add(shape, seed)
	}
	// One, two and three key columns over NULL-free rows, and the three
	// orders of a flagged int among flag-free columns.
	for _, shape := range []byte{0b0000001, 0b0100110, 0b1011011} {
		f.Add(shape, noNulls)
	}
	for _, shape := range []byte{0b1000010, 0b1001101, 0b1010000} {
		f.Add(shape, intNulls)
	}
	f.Add(byte(0), []byte{})
	f.Fuzz(func(t *testing.T, shape byte, rows []byte) {
		tbl, keys := sortTable(rows), sortKeysFor(shape)
		ref := referenceSortKeys(tbl, keys)
		view := nullAwareKeys(tbl, keys, ref)
		var words []uint32
		var depth int
		for _, degree := range []int{1, 3} {
			w, offs, err := sortKeyWords(columnar.TableRows{Table: tbl}, keys, degree)
			if err != nil {
				t.Fatal(err)
			}
			// Through a row list the buffer is the gathered rows' buffer.
			rev := columnar.IotaRows(tbl.Rows(), 1)
			slices.Reverse(rev)
			rev = rev[:len(rev)/2]
			viaRows, _, err := sortKeyWords(columnar.TableRows{Table: tbl, Rows: rev}, keys, degree)
			if err != nil {
				t.Fatal(err)
			}
			gathered, _, err := sortKeyWords(columnar.TableRows{Table: columnar.GatherTable("g", tbl, rev)}, keys, degree)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(viaRows, gathered) {
				t.Fatalf("keys %v degree %d: keys through a row list differ from the gathered rows'", keys, degree)
			}
			words, depth = w, offs[len(keys)]
			if len(words) != tbl.Rows()*depth {
				t.Fatalf("%d words for %d rows of depth %d", len(words), tbl.Rows(), depth)
			}
			for r, key := range view {
				if len(key) != 4*depth {
					t.Fatalf("row %d: byte key of %d bytes, depth %d", r, len(key), depth)
				}
				for d := 0; d < depth; d++ {
					if got, want := words[r*depth+d], binary.BigEndian.Uint32(key[4*d:]); got != want {
						t.Fatalf("keys %v degree %d row %d depth %d: segment %08x, want %08x", keys, degree, r, d, got, want)
					}
				}
			}
		}
		perm, _, err := bsort.Sort(bsort.NewFlatKeySource(words, tbl.Rows(), depth), bsort.Config{Model: vtime.Default(), Degree: 3})
		if err != nil {
			t.Fatal(err)
		}
		want := columnar.IotaRows(tbl.Rows(), 1)
		sort.SliceStable(want, func(a, b int) bool { return bytes.Compare(ref[want[a]], ref[want[b]]) < 0 })
		if !slices.Equal(perm, want) && (len(perm) > 0 || len(want) > 0) {
			t.Fatalf("keys %v: permutation %v, want %v", keys, perm, want)
		}
	})
}

// TestWindowNullPartitionDescOrder: NULL is a partition of its own, and
// under a DESC order key NULLs rank last; ranks land on the input's rows,
// which keep their order.
func TestWindowNullPartitionDescOrder(t *testing.T) {
	pb, vb := columnar.NewInt64Builder("p"), columnar.NewFloat64Builder("v")
	type row struct {
		p, v     float64 // NaN = NULL
		wantRank int64
	}
	null := math.NaN()
	rows := []row{
		{null, 5, 2}, {1, 3, 1}, {null, 7, 1}, {1, 3, 1}, {1, null, 4}, // p=1: 3, 3, -4, NULL
		{2, 1, 1}, {null, 5, 2}, {1, -4, 3}, {2, null, 2},
	}
	for _, r := range rows {
		if math.IsNaN(r.p) {
			pb.AppendNull()
		} else {
			pb.Append(int64(r.p))
		}
		if math.IsNaN(r.v) {
			vb.AppendNull()
		} else {
			vb.Append(r.v)
		}
	}
	for _, degree := range []int{1, 8} {
		e := joinEngine(t, degree)
		e.tables = map[string]*columnar.Table{"t": columnar.MustNewTable("t", pb.Build(), vb.Build())}
		f, err := e.exec(&plan.Window{Input: &plan.Scan{Table: "t"}, Out: "rnk",
			PartitionBy: []string{"p"}, OrderBy: []plan.SortKey{{Column: "v", Desc: true}}}, qctx{})
		if err != nil {
			t.Fatal(err)
		}
		rnk := f.table().Column("rnk").(*columnar.Int64Column)
		if rnk.Nulls() != nil || rnk.Len() != len(rows) {
			t.Fatalf("rank column: %d rows, nulls %v", rnk.Len(), rnk.Nulls())
		}
		for i, r := range rows {
			if f.table().Column("p").IsNull(i) != math.IsNaN(r.p) || f.table().Column("v").IsNull(i) != math.IsNaN(r.v) {
				t.Fatalf("row %d moved", i)
			}
			if rnk.Int64(i) != r.wantRank {
				t.Errorf("degree %d row %d (p=%v v=%v): rank %d, want %d", degree, i, r.p, r.v, rnk.Int64(i), r.wantRank)
			}
		}
	}
}

// TestWindowEmptyOver: OVER () has no partition and no order key, so the
// sort key has depth 0 — every row is one partition of peers and ranks 1,
// through SQL as the parser accepts it; a Sort of no keys likewise keeps
// every row where it was.
func TestWindowEmptyOver(t *testing.T) {
	ab := columnar.NewInt64Builder("a")
	for _, v := range []int64{30, 10, 20, 10} {
		ab.Append(v)
	}
	ab.AppendNull()
	tbl := columnar.MustNewTable("t", ab.Build())
	for _, degree := range []int{1, 8} {
		e := joinEngine(t, degree)
		if err := e.Register(tbl); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query(`SELECT a, RANK() OVER () AS rnk FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		rnk := res.Table.Column("rnk").(*columnar.Int64Column)
		if rnk.Len() != tbl.Rows() {
			t.Fatalf("degree %d: %d ranks for %d rows", degree, rnk.Len(), tbl.Rows())
		}
		for i := 0; i < rnk.Len(); i++ {
			if rnk.IsNull(i) || rnk.Int64(i) != 1 {
				t.Errorf("degree %d row %d: rank %v, want 1", degree, i, rnk.Value(i))
			}
		}
		sameTable(t, columnar.MustNewTable("t", res.Table.Column("a")), tbl)

		f, err := e.exec(&plan.Sort{Input: &plan.Scan{Table: "t"}}, qctx{})
		if err != nil {
			t.Fatal(err)
		}
		e.materialize(f)
		sameTable(t, columnar.MustNewTable("t", f.table().Columns()...), tbl)
	}
}

// TestRowListEdges: a filter that selects nothing, some rows or every row,
// then a bare project, a sort and a limit of 0, 2 or more rows than are
// left, answers what filtering, sorting and cutting the rows one operator
// at a time does — the frame carries one row list through all three and
// copies once, for the result. A group-by reads the same list.
func TestRowListEdges(t *testing.T) {
	a := []int64{5, 3, 9, 1, 7, 3, 8, 6}
	ab, sb := columnar.NewInt64Builder("a"), columnar.NewStringBuilder("s")
	for i, v := range a {
		ab.Append(v)
		if i == 2 {
			sb.AppendNull()
		} else {
			sb.Append(fmt.Sprintf("s%d", i%3))
		}
	}
	tbl := columnar.MustNewTable("t", ab.Build(), sb.Build())
	e := joinEngine(t, 8)
	if err := e.Register(tbl); err != nil {
		t.Fatal(err)
	}
	for _, floor := range []int64{100, 4, 0} {
		for _, limit := range []int{0, 2, 10} {
			var rows []int32
			for r, v := range a {
				if v > floor {
					rows = append(rows, int32(r))
				}
			}
			sort.SliceStable(rows, func(i, j int) bool { return a[rows[i]] > a[rows[j]] })
			rows = rows[:min(len(rows), limit)]
			want := columnar.GatherTable("want", tbl, rows)
			res, err := e.Query(fmt.Sprintf("SELECT s, a FROM t WHERE a > %d ORDER BY a DESC LIMIT %d", floor, limit))
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, columnar.MustNewTable("want", res.Table.Column("a"), res.Table.Column("s")), want)
		}
	}
	res, err := e.Query("SELECT s, SUM(a) AS total FROM t WHERE a > 4 GROUP BY s ORDER BY s")
	if err != nil {
		t.Fatal(err)
	}
	// Rows with a > 4: NULL (9), s0 (5, 8), s1 (7, 6); NULLs sort first.
	if got := fmt.Sprint(res.Table.Column("total").(*columnar.Int64Column).Data()); got != "[9 13 13]" {
		t.Fatalf("totals %s, want [9 13 13]", got)
	}
}

// TestWorkloadLapAllocBudget keeps per-row allocations out of the query
// path: one warm lap of the 146 statements at sf 0.02 (2 devices, degree
// 24) averages at most allocBudget allocations a statement. What is left
// is per operator, per column and per worker, not per row, so the count
// barely moves with the scale factor; a boxed value or a byte key per row
// would add tens of thousands a statement. The lap measures 446 a
// statement; the budget is that plus a quarter.
func TestWorkloadLapAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three laps of the workload")
	}
	const allocBudget = 558
	e, err := New(Config{Devices: 2, Degree: 24})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Generate(0.02, 20160626).RegisterAll(e); err != nil {
		t.Fatal(err)
	}
	qs := append(workload.BDInsights(), workload.CognosROLAP()...)
	lap := func() {
		for _, q := range qs {
			if _, err := e.QueryNamed(q.ID, q.SQL); err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
		}
	}
	lap() // cold: the fusion cache and the key indexes fill
	// AllocsPerRun pins GOMAXPROCS to 1; the lap still splits its ranges
	// by the configured degree, so the count is the 24-way one.
	perQuery := testing.AllocsPerRun(1, lap) / float64(len(qs))
	t.Logf("%.0f allocations per statement", perQuery)
	if perQuery > allocBudget {
		t.Fatalf("%.0f allocations per statement, budget %d", perQuery, allocBudget)
	}
}

// BenchmarkAggOutput is the group-by tail's micro-ruler: 1M groups under a
// two-column narrow key (an int and a dictionary code), an int SUM, a float
// MIN and an AVG, ordered, decoded and finalized at degree 8.
func BenchmarkAggOutput(b *testing.B) {
	const n = 1 << 20
	kb, sb := columnar.NewInt64Builder("k"), columnar.NewStringBuilder("s")
	vb, wb := columnar.NewInt64Builder("v"), columnar.NewFloat64Builder("w")
	for r := 0; r < n; r++ {
		kb.Append(int64(r / 16))
		sb.Append(sortLabels[1:][r%4] + string(rune('a'+r/4%4)))
		vb.Append(int64(r % 1000))
		wb.Append(float64(r%977) / 8)
	}
	tbl := columnar.MustNewTable("t", kb.Build(), sb.Build(), vb.Build(), wb.Build())
	cols, items, err := lowerAggs([]plan.AggItem{
		{Func: plan.AggSum, Column: "v", Out: "sv"}, {Func: plan.AggMin, Column: "w", Out: "mw"}, {Func: plan.AggAvg, Column: "v", Out: "av"},
	})
	if err != nil {
		b.Fatal(err)
	}
	chain, err := evaluator.BuildInput(columnar.TableRows{Table: tbl}, evaluator.Spec{Keys: []string{"k", "s"}, Aggs: cols},
		evaluator.Deps{Model: vtime.Default(), Degree: 8})
	if err != nil {
		b.Fatal(err)
	}
	out, err := groupby.RunCPU(chain.Input, 8, vtime.Default())
	if err != nil || out.Groups != n {
		b.Fatalf("%d groups, %v", out.Groups, err)
	}
	e := joinEngine(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.buildAggOutput(chain, chain.Input, out, items); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWideKeyGroupBy is the wide-key group-by's wall ruler, from
// the evaluator chain to the typed output: 1M rows under a (string, int,
// float) key in 65 536 groups, an int SUM and a COUNT(*), at degree 8. The
// int spans over 2^29 values and the float takes 64 bits, so the key is
// wide: 20 bytes in three words.
func BenchmarkWideKeyGroupBy(b *testing.B) {
	const n, groups = 1 << 20, 1 << 16
	sb, kb := columnar.NewStringBuilder("s"), columnar.NewInt64Builder("k")
	fb, vb := columnar.NewFloat64Builder("f"), columnar.NewInt64Builder("v")
	for r := 0; r < n; r++ {
		g := r % groups
		sb.Append(fmt.Sprintf("label-%d", g%8))
		kb.Append(int64(g/8) * 65_537)
		fb.Append(float64(g%97) / 4)
		vb.Append(int64(r % 1000))
	}
	tbl := columnar.MustNewTable("t", sb.Build(), kb.Build(), fb.Build(), vb.Build())
	cols, items, err := lowerAggs([]plan.AggItem{{Func: plan.AggSum, Column: "v", Out: "sv"}, {Func: plan.AggCount, Out: "c"}})
	if err != nil {
		b.Fatal(err)
	}
	spec := evaluator.Spec{Keys: []string{"s", "k", "f"}, Aggs: cols}
	deps := evaluator.Deps{Model: vtime.Default(), Degree: 8}
	e := joinEngine(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain, err := evaluator.BuildInput(columnar.TableRows{Table: tbl}, spec, deps)
		if err != nil {
			b.Fatal(err)
		}
		out, err := groupby.RunCPU(chain.Input, 8, deps.Model)
		if err != nil || out.Groups != groups {
			b.Fatalf("%d groups, %v", out.Groups, err)
		}
		if _, err := e.buildAggOutput(chain, chain.Input, out, items); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortKeys is the sort-key extractor's: 1M rows under a (string,
// int DESC, float) key at degree 8 — with NULLs in every column, eight
// segments a row, and with none, five.
func BenchmarkSortKeys(b *testing.B) {
	const n = 1 << 20
	for _, tc := range []struct {
		name  string
		flags func(*rand.Rand) byte
		depth int64
	}{
		{"nulls", func(rng *rand.Rand) byte { return byte(rng.Intn(64)) }, 8},
		{"no-nulls", func(*rand.Rand) byte { return 0 }, 5},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			rows := make([]byte, 0, 512*sortRowBytes)
			for r := 0; r < 512; r++ {
				rows = append(rows, sortRow(tc.flags(rng), rng.Int63()-rng.Int63(), rng.NormFloat64(), byte(r))...)
			}
			ids := columnar.IotaRows(n, 8)
			for i := range ids {
				ids[i] %= 512
			}
			tbl := columnar.GatherTable("t", sortTable(rows), ids)
			keys := sortKeysFor(0b1000001)
			b.SetBytes(n * tc.depth * 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, offs, err := sortKeyWords(columnar.TableRows{Table: tbl}, keys, 8); err != nil || int64(offs[len(keys)]) != tc.depth {
					b.Fatalf("depth %v, %v", offs, err)
				}
			}
		})
	}
}
