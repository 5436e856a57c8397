package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/plan"
	"blugpu/internal/trace"
)

// referenceJoin is the join execJoin ran before the key index: a Go map
// from build key to build rows, probed row by row into appended lists,
// then a sequential gather of both sides. It is the oracle the index and
// the count-then-fill probe are held to — same lists, same output table.
func referenceJoin(left, right *columnar.Table, lcol, rcol string, needed []string) (leftRows, rightRows []int32, out *columnar.Table) {
	lk := left.Column(lcol).(*columnar.Int64Column)
	rk := right.Column(rcol).(*columnar.Int64Column)
	buildRight := right.Rows() <= left.Rows()
	buildKeys, probeKeys := rk, lk
	if !buildRight {
		buildKeys, probeKeys = lk, rk
	}
	ht := make(map[int64][]int32, buildKeys.Len())
	for i := 0; i < buildKeys.Len(); i++ {
		if buildKeys.IsNull(i) {
			continue
		}
		k := buildKeys.Int64(i)
		ht[k] = append(ht[k], int32(i))
	}
	for i := 0; i < probeKeys.Len(); i++ {
		if probeKeys.IsNull(i) {
			continue
		}
		for _, m := range ht[probeKeys.Int64(i)] {
			if buildRight {
				leftRows = append(leftRows, int32(i))
				rightRows = append(rightRows, m)
			} else {
				leftRows = append(leftRows, m)
				rightRows = append(rightRows, int32(i))
			}
		}
	}
	wanted := func(name string) bool {
		if needed == nil {
			return true
		}
		for _, w := range needed {
			if w == name {
				return true
			}
		}
		return false
	}
	var cols []columnar.Column
	for _, c := range left.Columns() {
		if wanted(c.Name()) {
			cols = append(cols, columnar.GatherColumn(c, c.Name(), leftRows))
		}
	}
	for _, c := range right.Columns() {
		// A name the left side has too is the duplicate join key (the
		// engine rejects anything else before it gets here).
		if !left.HasColumn(c.Name()) && wanted(c.Name()) {
			cols = append(cols, columnar.GatherColumn(c, c.Name(), rightRows))
		}
	}
	return leftRows, rightRows, columnar.MustNewTable(left.Name()+"_j", cols...)
}

// probeRowLists runs the product probe the way execJoin does — index on
// the smaller side — and spells an identity match list out, so the result
// is comparable with the reference's.
func probeRowLists(t testing.TB, lk, rk *columnar.Int64Column, degree int) (leftRows, rightRows []int32) {
	t.Helper()
	buildRight := rk.Len() <= lk.Len()
	buildKeys, probeKeys := rk, lk
	if !buildRight {
		buildKeys, probeKeys = lk, rk
	}
	m, err := probeJoin(buildKeys.KeyIndex(), probeKeys, degree)
	if err != nil {
		t.Fatal(err)
	}
	if m.identity {
		if m.probeRows != nil || len(m.buildRows) != probeKeys.Len() {
			t.Fatalf("identity match with probeRows %v and %d build rows for %d probe rows", m.probeRows, len(m.buildRows), probeKeys.Len())
		}
		m.probeRows = columnar.IotaRows(probeKeys.Len(), 1)
	}
	if buildRight {
		return m.probeRows, m.buildRows
	}
	return m.buildRows, m.probeRows
}

// nkey is a nullable join key.
type nkey struct {
	v    int64
	null bool
}

func keysN(n int, f func(i int) nkey) []nkey {
	out := make([]nkey, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func keyList(vals ...int64) []nkey {
	return keysN(len(vals), func(i int) nkey { return nkey{v: vals[i]} })
}

// joinSide builds one join input: the key column plus an integer, a float
// (NULL every 7th row) and a string (NULL every 5th row) payload, so the
// output comparison sees every column type and the null bitmaps.
func joinSide(table, prefix string, keys []nkey) *columnar.Table {
	k := columnar.NewInt64Builder(prefix + "k")
	iv := columnar.NewInt64Builder(prefix + "i")
	fv := columnar.NewFloat64Builder(prefix + "f")
	sv := columnar.NewStringBuilder(prefix + "s")
	for i, key := range keys {
		if key.null {
			k.AppendNull()
		} else {
			k.Append(key.v)
		}
		iv.Append(int64(i) * 3)
		if i%7 == 6 {
			fv.AppendNull()
		} else {
			fv.Append(float64(i) + 0.25)
		}
		if i%5 == 4 {
			sv.AppendNull()
		} else {
			sv.Append(fmt.Sprintf("%s%d", prefix, i%13))
		}
	}
	return columnar.MustNewTable(table, k.Build(), iv.Build(), fv.Build(), sv.Build())
}

type joinCase struct {
	name        string
	left, right []nkey
}

func joinCases() []joinCase {
	null := nkey{null: true}
	return []joinCase{
		{"star, every fact row matches once", keysN(10_007, func(i int) nkey { return nkey{v: int64(i*7) % 50} }),
			keysN(50, func(i int) nkey { return nkey{v: int64(i)} })},
		{"NULL probe keys", keysN(9_000, func(i int) nkey { return nkey{v: int64(i % 20), null: i%11 == 3} }),
			keysN(20, func(i int) nkey { return nkey{v: int64(i)} })},
		{"NULL build keys", keysN(300, func(i int) nkey { return nkey{v: int64(i % 20)} }),
			keysN(20, func(i int) nkey { return nkey{v: int64(i), null: i%4 == 1} })},
		{"absent keys", keysN(8_300, func(i int) nkey { return nkey{v: int64(i % 40)} }),
			keysN(20, func(i int) nkey { return nkey{v: int64(i * 2)} })},
		{"duplicate build keys", keysN(8_193, func(i int) nkey { return nkey{v: int64(i % 9), null: i%50 == 0} }),
			keysN(30, func(i int) nkey { return nkey{v: int64(i % 6)} })},
		{"as many matches as probe rows, not one each", keyList(0, 1, 0, 1), keyList(0, 0)},
		{"negative keys", keysN(500, func(i int) nkey { return nkey{v: int64(i%30) - 20} }),
			keysN(25, func(i int) nkey { return nkey{v: int64(i) - 22} })},
		{"build spans all of int64", keyList(math.MaxInt64, 0, math.MinInt64, -1, math.MaxInt64, 5, math.MinInt64+1),
			keyList(math.MinInt64, math.MaxInt64, 0)},
		{"build at the top of the range, probe at the bottom", keyList(math.MinInt64+2, math.MaxInt64-1, math.MinInt64, math.MaxInt64, 3),
			keyList(math.MaxInt64-2, math.MaxInt64-1, math.MaxInt64)},
		{"sparse build keys", keysN(8_500, func(i int) nkey { return nkey{v: int64(i%70) << 33} }),
			keysN(64, func(i int) nkey { return nkey{v: int64(i) << 33, null: i == 9} })},
		{"sparse duplicate build keys", keysN(200, func(i int) nkey { return nkey{v: int64(i%12) * 1_000_003} }),
			keysN(40, func(i int) nkey { return nkey{v: int64(i%10) * 1_000_003} })},
		{"build on the left", keysN(12, func(i int) nkey { return nkey{v: int64(i % 8), null: i == 5} }),
			keysN(8_200, func(i int) nkey { return nkey{v: int64(i % 10), null: i%97 == 0} })},
		{"build on the left, every right row matches once", keyList(1, 0, 2),
			keysN(100, func(i int) nkey { return nkey{v: int64(i % 3)} })},
		{"empty left", nil, keyList(1, 2, 3)},
		{"empty right", keyList(1, 2, 3), nil},
		{"both empty", nil, nil},
		{"all NULL", []nkey{null, null, null}, []nkey{null, null}},
		{"one worker's range has no match", keysN(8_192, func(i int) nkey { return nkey{v: int64(i / 4_096)} }), keyList(1)},
	}
}

// joinEngine is a host-only engine whose catalog the test swaps per case.
func joinEngine(t testing.TB, degree int) *Engine {
	t.Helper()
	e, err := New(Config{Devices: 0, Degree: degree})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runJoin executes scan(l) ⋈ r through execJoin.
func runJoin(e *Engine, left, right *columnar.Table, needed []string) (*columnar.Table, error) {
	e.tables = map[string]*columnar.Table{"l": left, "r": right}
	f, err := e.exec(&plan.Join{Left: &plan.Scan{Table: "l"}, Table: "r", LeftCol: "lk", RightCol: "rk", Needed: needed}, qctx{})
	if err != nil {
		return nil, err
	}
	return f.tbl, nil
}

// sameTable compares names, types, values and NULLs, column by column.
func sameTable(t testing.TB, got, want *columnar.Table) {
	t.Helper()
	if got.Name() != want.Name() || got.NumColumns() != want.NumColumns() || got.Rows() != want.Rows() {
		t.Fatalf("table %s %d×%d, want %s %d×%d", got.Name(), got.Rows(), got.NumColumns(), want.Name(), want.Rows(), want.NumColumns())
	}
	for i, c := range got.Columns() {
		if w := want.Columns()[i]; c.Type() != w.Type() {
			t.Fatalf("column %d %q is %v, want %v", i, c.Name(), c.Type(), w.Type())
		}
	}
	if !bytes.Equal(canonicalResult(got), canonicalResult(want)) {
		t.Fatalf("join output differs from the reference:\n%s\nwant:\n%s", canonicalResult(got), canonicalResult(want))
	}
}

func checkJoinAgainstReference(t testing.TB, e *Engine, left, right *columnar.Table, needed []string) {
	t.Helper()
	wantL, wantR, want := referenceJoin(left, right, "lk", "rk", needed)
	lk, rk := left.Column("lk").(*columnar.Int64Column), right.Column("rk").(*columnar.Int64Column)
	gotL, gotR := probeRowLists(t, lk, rk, e.cfg.Degree)
	if len(gotL) != len(wantL) || len(gotR) != len(wantR) {
		t.Fatalf("%d/%d match rows, want %d/%d", len(gotL), len(gotR), len(wantL), len(wantR))
	}
	for i := range wantL {
		if gotL[i] != wantL[i] || gotR[i] != wantR[i] {
			t.Fatalf("match %d is (%d, %d), want (%d, %d)", i, gotL[i], gotR[i], wantL[i], wantR[i])
		}
	}
	got, err := runJoin(e, left, right, needed)
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, got, want)
}

// TestJoinMatchesReference holds the key index and the count-then-fill
// probe to the map join at every degree: same match lists, same output.
func TestJoinMatchesReference(t *testing.T) {
	for _, degree := range []int{1, 2, 8, 24} {
		e := joinEngine(t, degree)
		for _, tc := range joinCases() {
			t.Run(fmt.Sprintf("%s/degree=%d", tc.name, degree), func(t *testing.T) {
				left, right := joinSide("l", "l", tc.left), joinSide("r", "r", tc.right)
				checkJoinAgainstReference(t, e, left, right, nil)
				checkJoinAgainstReference(t, e, left, right, []string{"li", "rs", "rk"})
			})
		}
	}
}

// encodeKeys is the fuzz wire format: nine bytes a key, a flag (0 = NULL)
// and the value little-endian.
func encodeKeys(keys []nkey) []byte {
	out := make([]byte, 0, 9*len(keys))
	for _, k := range keys {
		flag := byte(1)
		if k.null {
			flag = 0
		}
		out = append(out, flag)
		out = binary.LittleEndian.AppendUint64(out, uint64(k.v))
	}
	return out
}

// decodeKeys reads at most fuzzKeys keys a side: duplicates multiply, and
// the reference renders every output row.
func decodeKeys(b []byte) []nkey {
	const fuzzKeys = 256
	out := make([]nkey, 0, len(b)/9)
	for ; len(b) >= 9 && len(out) < fuzzKeys; b = b[9:] {
		out = append(out, nkey{v: int64(binary.LittleEndian.Uint64(b[1:])), null: b[0] == 0})
	}
	return out
}

// FuzzJoinMatchesReference mutates the head of every table-driven case's
// key columns (short seeds: the fuzzer minimizes what it keeps byte by
// byte, one join each).
func FuzzJoinMatchesReference(f *testing.F) {
	head := func(keys []nkey) []byte {
		if len(keys) > 48 {
			keys = keys[:48]
		}
		return encodeKeys(keys)
	}
	for _, tc := range joinCases() {
		f.Add(head(tc.left), head(tc.right))
	}
	engines := []*Engine{joinEngine(f, 1), joinEngine(f, 3)}
	f.Fuzz(func(t *testing.T, leftKeys, rightKeys []byte) {
		left, right := joinSide("l", "l", decodeKeys(leftKeys)), joinSide("r", "r", decodeKeys(rightKeys))
		for _, e := range engines {
			checkJoinAgainstReference(t, e, left, right, nil)
		}
	})
}

// TestJoinMatchCountGuard: row ids are int32, so a match count past
// MaxInt32 is an error from the prefix sum, before the lists exist.
func TestJoinMatchCountGuard(t *testing.T) {
	counts := []int64{5, 0, 7}
	total, err := matchOffsets(counts)
	if err != nil || total != 12 || !reflect.DeepEqual(counts, []int64{0, 5, 5}) {
		t.Fatalf("matchOffsets = %d, %v, offsets %v; want 12, nil, [0 5 5]", total, err, counts)
	}
	if total, err := matchOffsets([]int64{math.MaxInt32 - 1, 1}); err != nil || total != math.MaxInt32 {
		t.Fatalf("MaxInt32 matches must fit: %d, %v", total, err)
	}
	for _, counts := range [][]int64{
		{math.MaxInt32, 1},
		{1 << 40},
		{math.MaxInt64 / 2, math.MaxInt64 / 2, math.MaxInt64 / 2},
	} {
		if _, err := matchOffsets(counts); err == nil || !strings.HasPrefix(err.Error(), "engine: join produces more than") {
			t.Errorf("matchOffsets(%v) = %v, want the row-id overflow error", counts, err)
		}
	}
}

// TestRejectedJoinLeavesNoOpenSpan: a join is validated before its span
// opens and before any work is done for it, so a rejected one leaves the
// query's trace with ended spans only and no join among them.
func TestRejectedJoinLeavesNoOpenSpan(t *testing.T) {
	e := newTestEngine(t, 1_000)
	dk := columnar.NewInt64Builder("d_sk")
	qty := columnar.NewInt64Builder("s_qty")
	for i := 0; i < 10; i++ {
		dk.Append(int64(i))
		qty.Append(int64(i))
	}
	if err := e.Register(columnar.MustNewTable("dup", dk.Build(), qty.Build())); err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	e.SetTracer(tr)
	for _, tc := range []struct{ sql, want string }{
		{"SELECT s_qty FROM sales JOIN nosuch ON s_store_sk = n_sk", "unknown join table"},
		{"SELECT s_qty FROM sales JOIN stores ON s_store_sk = missing_col", "references unknown columns"},
		{"SELECT s_qty FROM sales JOIN stores ON s_store_sk = st_name", "must be an integer key"},
		{"SELECT s_qty FROM sales JOIN dup ON s_store_sk = d_sk", "duplicate column"},
	} {
		_, err := e.Query(tc.sql)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want %q", tc.sql, err, tc.want)
		}
		var qe *QueryError
		if !errors.As(err, &qe) || qe.TraceSeq == 0 {
			t.Fatalf("%s: no traced QueryError in %v", tc.sql, err)
		}
		spans := tr.QuerySpans(qe.TraceSeq)
		if len(spans) == 0 {
			t.Fatalf("%s: query left no spans", tc.sql)
		}
		for _, sp := range spans {
			if sp.WallEnd.IsZero() {
				t.Errorf("%s: span %s/%s was never ended", tc.sql, sp.Cat, sp.Name)
			}
			if sp.Name == "join" {
				t.Errorf("%s: rejected join opened a span", tc.sql)
			}
		}
	}
}

// TestJoinIndexFollowsTheTable: the key index lives on the dimension's key
// column, not under the table's name, so engines that register different
// dimensions under one name — against one shared fact table, all at once —
// each join their own. Run under -race.
func TestJoinIndexFollowsTheTable(t *testing.T) {
	fact := joinSide("l", "l", keysN(6_000, func(i int) nkey { return nkey{v: int64(i % 16)} }))
	var wg sync.WaitGroup
	for v := 0; v < 4; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			e, err := New(Config{Devices: 0, Degree: 4})
			if err != nil {
				t.Error(err)
				return
			}
			// Same name, same shape, different keys in different rows.
			dim := joinSide("r", "r", keysN(16, func(i int) nkey { return nkey{v: int64((i*(2*v+1) + v) % 16), null: i == v} }))
			for _, tbl := range []*columnar.Table{fact, dim} {
				if err := e.Register(tbl); err != nil {
					t.Error(err)
					return
				}
			}
			_, _, want := referenceJoin(fact, dim, "lk", "rk", nil)
			for lap := 0; lap < 3; lap++ {
				f, err := e.exec(&plan.Join{Left: &plan.Scan{Table: "l"}, Table: "r", LeftCol: "lk", RightCol: "rk"}, qctx{})
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(canonicalResult(f.tbl), canonicalResult(want)) {
					t.Errorf("variant %d lap %d: join answered from another table's keys", v, lap)
				}
			}
		}(v)
	}
	wg.Wait()
}

// TestJoinPassesProbeSideThrough: when the build key is unique and every
// probe row matched, the probe side's columns are the output's — the same
// column objects, so vectors are shared and the memoised content hash
// (fusion's cache key) is not computed again — on whichever side probed.
func TestJoinPassesProbeSideThrough(t *testing.T) {
	e := joinEngine(t, 8)
	for _, tc := range []struct {
		name        string
		left, right []nkey
		probeSide   string
	}{
		{"probe left", keysN(5_000, func(i int) nkey { return nkey{v: int64(i % 10)} }), keysN(10, func(i int) nkey { return nkey{v: int64(9 - i)} }), "l"},
		{"probe right", keyList(2, 0, 1), keysN(40, func(i int) nkey { return nkey{v: int64(i % 3)} }), "r"},
	} {
		left, right := joinSide("l", "l", tc.left), joinSide("r", "r", tc.right)
		probe, build := left, right
		if tc.probeSide == "r" {
			probe, build = right, left
		}
		hashes := make(map[string]uint64)
		for _, c := range probe.Columns() {
			hashes[c.Name()] = c.ContentHash()
		}
		out, err := runJoin(e, left, right, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range probe.Columns() {
			if out.Column(c.Name()) != c {
				t.Errorf("%s: probe-side column %q was copied", tc.name, c.Name())
			}
			if out.Column(c.Name()).ContentHash() != hashes[c.Name()] {
				t.Errorf("%s: column %q changed its content hash", tc.name, c.Name())
			}
		}
		for _, c := range build.Columns() {
			if o := out.Column(c.Name()); o != nil && o == c {
				t.Errorf("%s: build-side column %q was not gathered", tc.name, c.Name())
			}
		}
		_, _, want := referenceJoin(left, right, "lk", "rk", nil)
		sameTable(t, out, want)
	}
	// A filtered fact table no longer matches row for row: copies again.
	left, right := joinSide("l", "l", keyList(0, 1, 7, 2)), joinSide("r", "r", keyList(0, 1, 2))
	out, err := runJoin(e, left, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Column("li") == left.Column("li") || out.Rows() != 3 {
		t.Errorf("partial match passed the probe side through (%d rows)", out.Rows())
	}
}

// BenchmarkJoinProbe is the probe's micro-ruler: 1 M probe rows against a
// resident index (built outside the timer, as a warm star join finds it).
func BenchmarkJoinProbe(b *testing.B) {
	const probeRows = 1 << 20
	for _, bc := range []struct {
		name      string
		buildRows int
		stride    int64
		nullEvery int
	}{
		{"dense2k", 2_000, 1, 0},
		{"dense10kNullProbes", 10_000, 1, 16},
		{"sparse10k", 10_000, 1 << 30, 0},
	} {
		build := columnar.NewInt64Builder("rk")
		for i := 0; i < bc.buildRows; i++ {
			build.Append(int64(i) * bc.stride)
		}
		probe := columnar.NewInt64Builder("lk")
		for i := 0; i < probeRows; i++ {
			if bc.nullEvery > 0 && i%bc.nullEvery == 0 {
				probe.AppendNull()
			} else {
				probe.Append(int64(i*7919%bc.buildRows) * bc.stride)
			}
		}
		idx, keys := build.Build().KeyIndex(), probe.Build()
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := probeJoin(idx, keys, 24); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
