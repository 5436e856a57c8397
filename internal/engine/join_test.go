package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/expr"
	"blugpu/internal/optimizer"
	"blugpu/internal/plan"
	"blugpu/internal/sqlparse"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// referenceJoin is the join execJoin ran before the key index: a Go map
// from build key to build rows, probed row by row into appended lists,
// then a sequential gather of both sides. It is the oracle the index and
// the count-then-fill probe are held to — same lists, same output table.
func referenceJoin(left, right *columnar.Table, lcol, rcol string, needed []string) (leftRows, rightRows []int32, out *columnar.Table) {
	return referenceJoinBuilding(left, right, lcol, rcol, needed, right.Rows() <= left.Rows())
}

// referenceJoinBuilding is referenceJoin with the build side given.
func referenceJoinBuilding(left, right *columnar.Table, lcol, rcol string, needed []string, buildRight bool) (leftRows, rightRows []int32, out *columnar.Table) {
	lk := left.Column(lcol).(*columnar.Int64Column)
	rk := right.Column(rcol).(*columnar.Int64Column)
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
	return leftRows, rightRows, columnar.MustNewTable(left.Name(), cols...)
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
	m, err := probeJoin(buildKeys.KeyIndex(), probeKeys, nil, nil, nil, degree)
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
	return runJoinNode(e, left, right, &plan.Join{Left: &plan.Scan{Table: "l"}, Table: "r", LeftCol: "lk", RightCol: "rk", Needed: needed})
}

// runJoinNode executes a join plan over l and r, both analyzed, so a
// masked build side's key range is tested where the rule says it pays.
func runJoinNode(e *Engine, left, right *columnar.Table, j *plan.Join) (*columnar.Table, error) {
	setCatalog(e, left, right)
	f, err := e.exec(j, qctx{})
	if err != nil {
		return nil, err
	}
	e.materialize(f)
	return f.table(), nil
}

// setCatalog makes tables the engine's whole catalog, each with its
// statistics.
func setCatalog(e *Engine, tables ...*columnar.Table) {
	e.tables = make(map[string]*columnar.Table, len(tables))
	e.stats = make(map[string]*optimizer.TableStats, len(tables))
	for _, tbl := range tables {
		e.tables[tbl.Name()], e.stats[tbl.Name()] = tbl, optimizer.Analyze(tbl)
	}
}

// mustPred lowers a WHERE condition for a hand-built plan.
func mustPred(t testing.TB, cond string) expr.Expr {
	t.Helper()
	stmt, err := sqlparse.Parse("SELECT x FROM t WHERE " + cond)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := plan.LowerExpr(stmt.Where)
	if err != nil {
		t.Fatal(err)
	}
	return pred
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
	// Probe through a row list: the left side is a filter's or a sort's
	// list, read in place, and the joined table may be masked by its own
	// predicate. The reference joins the gathered tables, building on the
	// side the engine picks from logical row counts.
	for _, degree := range []int{1, 2, 8} {
		e := joinEngine(t, degree)
		for _, lc := range []struct {
			name string
			left func() plan.Node
		}{
			{"empty list", func() plan.Node { return &plan.Filter{Input: &plan.Scan{Table: "l"}, Pred: mustPred(t, "li < 0")} }},
			{"partial list", func() plan.Node {
				return &plan.Filter{Input: &plan.Scan{Table: "l"}, Pred: mustPred(t, "lf > 40.0 OR ls = 'l3'")}
			}},
			{"full list", func() plan.Node {
				return &plan.Sort{Input: &plan.Scan{Table: "l"}, Keys: []plan.SortKey{{Column: "li", Desc: true}}}
			}},
		} {
			for _, pred := range []string{"", "ri >= 9 AND rf IS NOT NULL"} {
				for _, tc := range joinCases() {
					name := fmt.Sprintf("probe through row list/%s/where %q/%s/degree=%d", lc.name, pred, tc.name, degree)
					t.Run(name, func(t *testing.T) {
						left, right := joinSide("l", "l", tc.left), joinSide("r", "r", tc.right)
						j := &plan.Join{Left: lc.left(), Table: "r", LeftCol: "lk", RightCol: "rk"}
						setCatalog(e, left, right)
						in, err := e.exec(j.Left, qctx{})
						if err != nil {
							t.Fatal(err)
						}
						listed := left
						if rows := in.parts[0].rows; rows != nil {
							listed = columnar.GatherTable("l", left, rows)
						}
						masked := right
						if pred != "" {
							j.Pred = mustPred(t, pred)
							kept, err := expr.EvalPredicate(right, j.Pred, 1)
							if err != nil {
								t.Fatal(err)
							}
							masked = columnar.GatherTable("r", right, kept)
						}
						_, _, want := referenceJoinBuilding(listed, masked, "lk", "rk", nil, right.Rows() <= listed.Rows())
						got, err := runJoinNode(e, left, right, j)
						if err != nil {
							t.Fatal(err)
						}
						sameTable(t, got, want)
					})
				}
			}
		}
	}
	t.Run("chains", joinChainsMatchReference)
	t.Run("narrow kept range", joinRangeMatchesReference)
}

// rangeProbeKeys are probe keys around a masked build side's kept range
// [lo, hi]: both edges, one past each, NULL, the ends of int64, and every
// key of the dimension in turn.
func rangeProbeKeys(n int, lo, hi, dimRows int64) []nkey {
	edges := []nkey{{v: lo - 1}, {v: lo}, {v: hi}, {v: hi + 1}, {null: true}, {v: math.MinInt64}, {v: math.MaxInt64}}
	return keysN(n, func(i int) nkey {
		if i%3 == 0 {
			return edges[(i/3)%len(edges)]
		}
		return nkey{v: int64(i) % dimRows}
	})
}

// joinRangeMatchesReference holds a join whose build side is masked to a
// narrow key range, probed by keys at and past its edges, NULL and the
// ends of int64, to referenceJoin, with and without a row list on the
// probe side, at degrees 1, 2 and 8 — and checks that the range filter
// ran.
func joinRangeMatchesReference(t *testing.T) {
	const lo, hi, dimRows = 40, 50, 100
	// ri is three times the row, and rk the row: rows 40…50 keep keys
	// 40…50.
	pred := "ri >= 120 AND ri <= 150"
	left := joinSide("l", "l", rangeProbeKeys(7_000, lo, hi, dimRows))
	right := joinSide("r", "r", keysN(dimRows, func(i int) nkey { return nkey{v: int64(i)} }))
	kept, err := expr.EvalPredicate(right, mustPred(t, pred), 1)
	if err != nil {
		t.Fatal(err)
	}
	masked := columnar.GatherTable("r", right, kept)
	for _, degree := range []int{1, 2, 8} {
		e := joinEngine(t, degree)
		for _, st := range chainStarts {
			t.Run(fmt.Sprintf("%s/degree=%d", st.name, degree), func(t *testing.T) {
				setCatalog(e, left, right)
				j := &plan.Join{Left: st.node(t), Table: "r", LeftCol: "lk", RightCol: "rk", Pred: mustPred(t, pred)}
				in, err := e.exec(j.Left, qctx{})
				if err != nil {
					t.Fatal(err)
				}
				listed := left
				if rows := in.parts[0].rows; rows != nil {
					listed = columnar.GatherTable("l", left, rows)
				}
				builds := dimRows <= listed.Rows()
				_, _, want := referenceJoinBuilding(listed, masked, "lk", "rk", nil, builds)
				f, err := e.exec(j, qctx{})
				if err != nil {
					t.Fatal(err)
				}
				// An empty list is smaller than the dimension, which then
				// probes, and no range is tested.
				d := f.ops[len(f.ops)-1].Detail
				if ran := strings.Contains(d, fmt.Sprintf(" range [%d, %d] skipped ", lo, hi)); ran != builds {
					t.Fatalf("range filter ran = %v with the dimension building = %v: %s", ran, builds, d)
				}
				e.materialize(f)
				sameTable(t, f.table(), want)
			})
		}
	}
}

// TestRangeFilterRule: the probe tests a masked build side's key range
// first only when the share of the probe column's analyzed range outside
// the kept range is predicted above CPUHashProbeRate/CPUScanRate, and only
// when the probe part is a base table with statistics. A join that does
// not test it is charged the formula it had before, bit for bit; one that
// does pays a scan for every probe row and every kept row, and a hash
// probe for the rows inside.
func TestRangeFilterRule(t *testing.T) {
	// Fact keys 0…99 evenly; the dimension's rk is its row, ri three
	// times it, so "ri <= 3*h" keeps keys 0…h.
	fact := joinSide("l", "l", keysN(4_000, func(i int) nkey { return nkey{v: int64(i*7) % 100} }))
	dim := joinSide("r", "r", keysN(100, func(i int) nkey { return nkey{v: int64(i)} }))
	e := joinEngine(t, 8)
	m := e.model
	breakEven := m.CPUHashProbeRate / m.CPUScanRate
	for _, tc := range []struct {
		name    string
		hi      int  // the kept range is [0, hi]
		noStats bool // the fact has no statistics
		used    bool
	}{
		{"outside share 0.30, above the break-even", 69, false, true},
		{"outside share 0.95", 4, false, true},
		{"outside share 0.25, below the break-even", 74, false, false},
		{"the kept range covers the probe column's", 99, false, false},
		{"the probe part has no statistics", 4, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if outside := 1 - float64(tc.hi+1)/100; (outside > breakEven) != (tc.used || tc.noStats) {
				t.Fatalf("case misplaced: outside share %.2f, break-even %.3f", outside, breakEven)
			}
			setCatalog(e, fact, dim)
			if tc.noStats {
				delete(e.stats, "l")
			}
			l := &link{n: &plan.Join{Left: &plan.Scan{Table: "l"}, Table: "r", LeftCol: "lk", RightCol: "rk",
				Pred: mustPred(t, fmt.Sprintf("ri <= %d", 3*tc.hi))}}
			in, err := e.exec(l.n.Left, qctx{})
			if err != nil {
				t.Fatal(err)
			}
			st, err := e.joinStep(in, l, nil)
			if err != nil {
				t.Fatal(err)
			}
			kept, probeN := tc.hi+1, fact.Rows()
			inside := 0
			for i := 0; i < probeN; i++ {
				if (i*7)%100 <= tc.hi {
					inside++
				}
			}
			// The fact part is a scan's, with no list: no list rows are
			// composed.
			cpu := func(work int, rate float64) vtime.Duration { return m.CPUTime(float64(work), rate, 8) }
			predT := cpu(dim.Rows(), m.CPUExprRate)
			want := predT + cpu(dim.Rows(), m.CPUHashBuildRate) + cpu(probeN, m.CPUHashProbeRate) + cpu(0, m.CPUScanRate)
			skipped := -1
			if tc.used {
				skipped = probeN - inside
				want = predT + cpu(dim.Rows(), m.CPUHashBuildRate) +
					(cpu(kept+probeN, m.CPUScanRate) + cpu(inside, m.CPUHashProbeRate)) +
					cpu(0, m.CPUScanRate)
			}
			if st.skipped != skipped || st.t != want {
				t.Fatalf("skipped %d, modeled %v (%#x); want %d, %v (%#x)\n%s",
					st.skipped, st.t, math.Float64bits(float64(st.t)), skipped, want, math.Float64bits(float64(want)), st.detail)
			}
			if ran := strings.Contains(st.detail, " range [0, "); ran != tc.used {
				t.Fatalf("detail %q: range filter ran = %v, want %v", st.detail, ran, tc.used)
			}
		})
	}
}

// TestRangeFilterExplained: a join that tests the kept range says so in
// its EXPLAIN ANALYZE row and its span.
func TestRangeFilterExplained(t *testing.T) {
	e := newTestEngine(t, 12_000)
	mk, quarter := columnar.NewInt64Builder("m_month"), columnar.NewInt64Builder("m_quarter")
	for m := 1; m <= 12; m++ {
		mk.Append(int64(m))
		quarter.Append(int64((m-1)/3 + 1))
	}
	if err := e.Register(columnar.MustNewTable("months", mk.Build(), quarter.Build())); err != nil {
		t.Fatal(err)
	}
	// The fact's months run 1…12 evenly; the first quarter keeps 1…3.
	const sql = "SELECT s_qty FROM sales JOIN months ON s_month = m_month WHERE m_quarter = 1"
	const want = "range [1, 3] skipped 9000 of 12000"
	rep, _, err := e.ExplainAnalyzeNamedCtx(context.Background(), "range", sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text(), want) {
		t.Fatalf("EXPLAIN ANALYZE lacks %q:\n%s", want, rep.Text())
	}
	tr := trace.New()
	e.SetTracer(tr)
	res, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.QuerySpans(res.TraceSeq) {
		for _, a := range sp.Attrs {
			if sp.Name == "join" && a.Key == "skipped" && a.Int == 9000 {
				return
			}
		}
	}
	t.Fatal("no join span carries skipped=9000")
}

// chainJoin is one join of a chain: the dimension joined, the chain's
// column it joins on (the dimension's key is its prefix+"k"), and a
// predicate over the dimension, "" for none.
type chainJoin struct {
	dim        *columnar.Table
	prefix, on string
	pred       string
}

// chainFact is a chain's fact table: joinSide's columns, keyed by lk, plus
// two more keys, la and lb, read backwards and halved from the same list.
func chainFact(keys []nkey) *columnar.Table {
	base := joinSide("l", "l", keys)
	la, lb := columnar.NewInt64Builder("la"), columnar.NewInt64Builder("lb")
	for i := range keys {
		k := keys[len(keys)-1-i]
		if k.null {
			la.AppendNull()
		} else {
			la.Append(k.v)
		}
		lb.Append(keys[i].v / 2)
	}
	return columnar.MustNewTable("l", append(append([]columnar.Column{}, base.Columns()...), la.Build(), lb.Build())...)
}

// checkChain runs joins left-deep over start — a plan over the fact "l" —
// and holds the result to referenceJoin applied join by join over the
// tables the start's list and each predicate select, each building on the
// side the engine picks from logical row counts.
func checkChain(t testing.TB, e *Engine, fact *columnar.Table, start plan.Node, joins []chainJoin) {
	t.Helper()
	tables := []*columnar.Table{fact}
	for _, j := range joins {
		tables = append(tables, j.dim)
	}
	setCatalog(e, tables...)
	in, err := e.exec(start, qctx{})
	if err != nil {
		t.Fatal(err)
	}
	want := fact
	if rows := in.parts[0].rows; rows != nil {
		want = columnar.GatherTable("l", fact, rows)
	}
	var node plan.Node = start
	var top *plan.Join
	every := columnNames(fact)
	for _, j := range joins {
		jn := &plan.Join{Left: node, Table: j.dim.Name(), LeftCol: j.on, RightCol: j.prefix + "k"}
		every = append(every, columnNames(j.dim)...)
		masked := j.dim
		if j.pred != "" {
			jn.Pred = mustPred(t, j.pred)
			kept, err := expr.EvalPredicate(j.dim, jn.Pred, 1)
			if err != nil {
				t.Fatal(err)
			}
			masked = columnar.GatherTable(j.dim.Name(), j.dim, kept)
		}
		_, _, want = referenceJoinBuilding(want, masked, j.on, j.prefix+"k", nil, j.dim.Rows() <= want.Rows())
		node, top = jn, jn
	}
	f, err := e.exec(node, qctx{})
	if err != nil {
		t.Fatal(err)
	}
	e.materialize(f)
	sameTable(t, f.table(), want)
	// Handing on named columns, as a planned chain does, lets the joins
	// run in kept-fraction order: the same rows, each table's columns a
	// part of their own.
	top.Needed = every
	if f, err = e.exec(node, qctx{}); err != nil {
		t.Fatal(err)
	}
	e.materialize(f)
	cols := make([]columnar.Column, 0, want.NumColumns())
	for _, name := range columnNames(want) {
		if c := f.table().Column(name); c != nil {
			cols = append(cols, c)
		}
	}
	sameTable(t, columnar.MustNewTable(f.table().Name(), cols...), want)
}

// columnNames lists tbl's column names in order.
func columnNames(tbl *columnar.Table) []string {
	names := make([]string, tbl.NumColumns())
	for i, c := range tbl.Columns() {
		names[i] = c.Name()
	}
	return names
}

// chainStarts are the ways a chain's left side arrives: unlisted, through
// a filter's list (one that keeps some rows, one that keeps none) or
// through a sort's.
var chainStarts = []struct {
	name string
	node func(t testing.TB) plan.Node
}{
	{"scan", func(testing.TB) plan.Node { return &plan.Scan{Table: "l"} }},
	{"filter list", func(t testing.TB) plan.Node {
		return &plan.Filter{Input: &plan.Scan{Table: "l"}, Pred: mustPred(t, "lf > 40.0 OR ls = 'l3'")}
	}},
	{"empty filter list", func(t testing.TB) plan.Node {
		return &plan.Filter{Input: &plan.Scan{Table: "l"}, Pred: mustPred(t, "li < 0")}
	}},
	{"sort list", func(testing.TB) plan.Node {
		return &plan.Sort{Input: &plan.Scan{Table: "l"}, Keys: []plan.SortKey{{Column: "li", Desc: true}}}
	}},
}

// joinChainsMatchReference is TestJoinMatchesReference over chains of two
// and three joins, whose later joins take their left side as parts — the
// fact's and each earlier dimension's, each under its composed list — and
// probe with a fact key or, snowflake-wise, a dimension's: at degrees 1, 2
// and 8, with and without join predicates, with unique and duplicate build
// keys, and with the dimensions building on either side.
func joinChainsMatchReference(t *testing.T) {
	dims := func(rows int, dup bool) (r, s, u *columnar.Table) {
		keys := func(shift int) []nkey {
			return keysN(rows, func(i int) nkey {
				v := int64(i)
				if dup {
					v = int64(i % (rows/2 + 1))
				}
				return nkey{v: v + int64(shift), null: i%17 == 9}
			})
		}
		return joinSide("r", "r", keys(0)), joinSide("s", "s", keys(3)), joinSide("u", "u", keys(-2))
	}
	for _, degree := range []int{1, 2, 8} {
		e := joinEngine(t, degree)
		for _, dup := range []bool{false, true} {
			for _, size := range []struct {
				name       string
				fact, dims int
			}{
				{"dimensions build", 3_000, 40},
				{"fact builds", 12, 5_000},
			} {
				fact := chainFact(keysN(size.fact, func(i int) nkey { return nkey{v: int64(i*7) % 45, null: i%23 == 4} }))
				r, sd, u := dims(size.dims, dup)
				for _, preds := range [][3]string{{}, {"ri >= 9 AND rf IS NOT NULL", "ss <> 's4'", "ui < 90"}} {
					chains := []struct {
						name  string
						joins []chainJoin
					}{
						{"two joins", []chainJoin{{r, "r", "lk", preds[0]}, {sd, "s", "la", preds[1]}}},
						{"three joins", []chainJoin{{r, "r", "lk", preds[0]}, {sd, "s", "la", preds[1]}, {u, "u", "lb", preds[2]}}},
						{"snowflake", []chainJoin{{r, "r", "lk", preds[0]}, {sd, "s", "ri", preds[1]}, {u, "u", "la", preds[2]}}},
					}
					for _, ch := range chains {
						for _, st := range chainStarts {
							name := fmt.Sprintf("%s/%s/%s/dup=%v/pred=%v/degree=%d", ch.name, st.name, size.name, dup, preds[0] != "", degree)
							t.Run(name, func(t *testing.T) {
								checkChain(t, e, fact, st.node(t), ch.joins)
							})
						}
					}
				}
			}
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
	// A star whose first dimension keeps every row and whose second keeps
	// a fifth of its rows (si < 6 keeps rows 0 and 1 of 10): the second
	// runs first.
	f.Add(encodeKeys(keysN(200, func(i int) nkey { return nkey{v: int64(i*7) % 10} })),
		encodeKeys(keysN(10, func(i int) nkey { return nkey{v: int64(i)} })))
	// The selective chain's second dimension keeps keys 40 and 50 (its
	// rows 0 and 1), a narrow range the fact's keys sit at and past both
	// edges of, NULL and the ends of int64 among them: the probe tests the
	// range first. Then the same with the kept range one key wide.
	f.Add(encodeKeys(rangeProbeKeys(200, 40, 50, 100)),
		encodeKeys(append(keyList(40, 50), keysN(60, func(i int) nkey { return nkey{v: int64(i)} })...)))
	f.Add(encodeKeys(rangeProbeKeys(200, 7, 7, 20)),
		encodeKeys(append(keyList(7, 7), keysN(15, func(i int) nkey { return nkey{v: int64(i)} })...)))
	engines := []*Engine{joinEngine(f, 1), joinEngine(f, 3)}
	f.Fuzz(func(t *testing.T, leftKeys, rightKeys []byte) {
		left, right := joinSide("l", "l", decodeKeys(leftKeys)), joinSide("r", "r", decodeKeys(rightKeys))
		// The same keys through two-join chains: the second dimension
		// joins the fact's reversed keys, and its left side arrives as
		// the first join's parts, or, when its predicate keeps the
		// smaller fraction, it joins first.
		fact, second := chainFact(decodeKeys(leftKeys)), joinSide("s", "s", decodeKeys(rightKeys))
		joins := []chainJoin{{right, "r", "lk", ""}, {second, "s", "la", "ss <> 's4'"}}
		selective := []chainJoin{{right, "r", "lk", ""}, {second, "s", "la", "si < 6"}}
		for _, e := range engines {
			checkJoinAgainstReference(t, e, left, right, nil)
			for _, st := range chainStarts {
				checkChain(t, e, fact, st.node(t), joins)
				checkChain(t, e, fact, st.node(t), selective)
			}
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

// TestFailedOperatorLeavesNoOpenSpan: an operator that fails after its
// span opened — a predicate or an expression that does not type, a sort
// or a window over a column the input lacks — ends its span with the
// error, so the failed query's trace holds ended spans only.
func TestFailedOperatorLeavesNoOpenSpan(t *testing.T) {
	e := newTestEngine(t, 1_000)
	tr := trace.New()
	e.SetTracer(tr)
	for _, tc := range []struct{ sql, span string }{
		{"SELECT s_qty FROM sales WHERE s_qty > 'abc'", "filter"},
		{"SELECT s_qty + 'x' AS y FROM sales", "project"},
		{"SELECT s_month, SUM(s_qty + 'x') AS t FROM sales GROUP BY s_month", "derive"},
		{"SELECT s_qty FROM sales ORDER BY s_qty, s_missing", "sort"},
		{"SELECT s_qty, RANK() OVER (ORDER BY s_missing) AS r FROM sales", "window-sort"},
		{"SELECT st_name, s_qty FROM sales JOIN stores ON s_store_sk = st_store_sk WHERE st_name > s_qty", "filter"},
	} {
		_, err := e.Query(tc.sql)
		var qe *QueryError
		if !errors.As(err, &qe) || qe.TraceSeq == 0 {
			t.Fatalf("%s: no traced QueryError in %v", tc.sql, err)
		}
		failed := false
		for _, sp := range tr.QuerySpans(qe.TraceSeq) {
			if sp.WallEnd.IsZero() {
				t.Errorf("%s: span %s/%s was never ended", tc.sql, sp.Cat, sp.Name)
			}
			if sp.Cat != "op" || sp.Name != tc.span {
				continue
			}
			for _, a := range sp.Attrs {
				failed = failed || a.Key == "error"
			}
		}
		if !failed {
			t.Errorf("%s: no op/%s span ended with the error", tc.sql, tc.span)
		}
	}
}

// TestJoinNothingReadAbove: when nothing above a join reads a column of
// it, only its rows, the join still hands on every row.
func TestJoinNothingReadAbove(t *testing.T) {
	e := newTestEngine(t, 1_000)
	res, err := e.Query("SELECT 1 AS one FROM sales JOIN stores ON s_store_sk = st_store_sk WHERE st_region = 'east'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Rows() != 500 || len(res.Columns) != 1 {
		t.Fatalf("%d rows of %v, want 500 of [one]", res.Table.Rows(), res.Columns)
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
				e.materialize(f)
				if !bytes.Equal(canonicalResult(f.table()), canonicalResult(want)) {
					t.Errorf("variant %d lap %d: join answered from another table's keys", v, lap)
				}
			}
		}(v)
	}
	wg.Wait()
}

// TestJoinOutputsKeyedByProvenance: a column the join gathers carries a
// provenance key, not its walked content hash, and the key is the same
// run after run of the same join. Over every differential case at two
// degrees a key names one content: columns of equal key have equal content
// hashes. A passed-through probe column keeps its own key.
func TestJoinOutputsKeyedByProvenance(t *testing.T) {
	content := make(map[uint64]uint64) // column key -> content hash
	for _, degree := range []int{1, 8} {
		e := joinEngine(t, degree)
		for _, tc := range joinCases() {
			left, right := joinSide("l", "l", tc.left), joinSide("r", "r", tc.right)
			first, err := runJoin(e, left, right, nil)
			if err != nil {
				t.Fatal(err)
			}
			again, err := runJoin(e, left, right, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range first.Columns() {
				src := left.Column(c.Name())
				if src == nil {
					src = right.Column(c.Name())
				}
				switch {
				case c == src:
					if c.Key() != src.ContentHash() {
						t.Errorf("%s: passed-through column %q changed its key", tc.name, c.Name())
					}
				case c.Key() == c.ContentHash():
					t.Errorf("%s: gathered column %q is keyed by its content hash", tc.name, c.Name())
				case c.Key() != again.Columns()[i].Key():
					t.Errorf("%s degree %d: column %q keyed %x, then %x", tc.name, degree, c.Name(), c.Key(), again.Columns()[i].Key())
				}
				if h, ok := content[c.Key()]; ok && h != c.ContentHash() {
					t.Errorf("%s degree %d: column %q shares key %x with other content", tc.name, degree, c.Name(), c.Key())
				}
				content[c.Key()] = c.ContentHash()
			}
		}
	}

	// distinct runs two joins over the same tables and demands that every
	// column gathered by both carries a different key in each, and that
	// each key names one content.
	distinct := func(t *testing.T, a, b *plan.Join) {
		t.Helper()
		e := joinEngine(t, 8)
		left := joinSide("l", "l", keysN(5_000, func(i int) nkey { return nkey{v: int64(i % 40)} }))
		right := joinSide("r", "r", keysN(40, func(i int) nkey { return nkey{v: int64(i)} }))
		ta, err := runJoinNode(e, left, right, a)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := runJoinNode(e, left, right, b)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[uint64]uint64)
		for _, c := range append(ta.Columns(), tb.Columns()...) {
			if h, ok := seen[c.Key()]; ok && h != c.ContentHash() {
				t.Errorf("column %q shares key %x with other content", c.Name(), c.Key())
			}
			seen[c.Key()] = c.ContentHash()
		}
		for _, c := range ta.Columns() {
			if o := tb.Column(c.Name()); o != nil && o.Key() == c.Key() {
				t.Errorf("column %q keyed %x by both joins", c.Name(), c.Key())
			}
		}
	}
	t.Run("two dimension predicates", func(t *testing.T) {
		distinct(t,
			&plan.Join{Left: &plan.Scan{Table: "l"}, Table: "r", LeftCol: "lk", RightCol: "rk", Pred: mustPred(t, "ri < 60")},
			&plan.Join{Left: &plan.Scan{Table: "l"}, Table: "r", LeftCol: "lk", RightCol: "rk", Pred: mustPred(t, "ri >= 60")})
	})
	t.Run("fact filter under the join", func(t *testing.T) {
		distinct(t,
			&plan.Join{Left: &plan.Filter{Input: &plan.Scan{Table: "l"}, Pred: mustPred(t, "li < 6000")}, Table: "r", LeftCol: "lk", RightCol: "rk"},
			&plan.Join{Left: &plan.Scan{Table: "l"}, Table: "r", LeftCol: "lk", RightCol: "rk"})
	})
	t.Run("same statement twice", func(t *testing.T) {
		e := newTestEngine(t, 120_000)
		// The statement must reach the device to test the cache. Its
		// joined count (51 428) sits just above T1 and its pre-join
		// estimate (48 857) just below (TestJoinEstimateMisdecides).
		e.thresholds.T1Rows = 1_000
		const sql = "SELECT s_month, SUM(s_qty) AS q FROM sales JOIN stores ON s_store_sk = st_store_sk " +
			"WHERE s_qty > 1 AND st_region = 'east' GROUP BY s_month"
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.plan(stmt)
		if err != nil {
			t.Fatal(err)
		}
		j := p.Root.(*plan.Project).Input.(*plan.Aggregate).Input.(*plan.Join)
		if j.Pred == nil {
			t.Fatalf("st_region was not placed on the join: %s", p.Root)
		}
		var keys [2][]uint64
		for run := range keys {
			f, err := e.exec(j, qctx{})
			if err != nil {
				t.Fatal(err)
			}
			e.materialize(f)
			for _, c := range f.table().Columns() {
				keys[run] = append(keys[run], c.Key())
			}
		}
		if !reflect.DeepEqual(keys[0], keys[1]) {
			t.Errorf("join output keys %x, then %x", keys[0], keys[1])
		}
		res, err := e.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !res.GPUUsed {
			t.Fatal("the statement must take the fused device path to test the cache")
		}
		before := e.FusionCache().Stats()
		if _, err := e.Query(sql); err != nil {
			t.Fatal(err)
		}
		after := e.FusionCache().Stats()
		if after.Misses != before.Misses || after.Hits == before.Hits {
			t.Errorf("second run: %d misses, %d hits; want only hits", after.Misses-before.Misses, after.Hits-before.Hits)
		}
	})
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
// resident index (built outside the timer, as a warm star join finds it),
// plus the shapes a placed WHERE gives it: a build side masked by a join
// predicate that keeps 20 % of the dimension, a probe through the row
// list of a fact filter that keeps 60 % of the rows, and a build side
// whose kept keys form a narrow range, tested before the lookup.
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
				if _, err := probeJoin(idx, keys, nil, nil, nil, 24); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	const buildRows = 10_000
	build := columnar.NewInt64Builder("rk")
	for i := 0; i < buildRows; i++ {
		build.Append(int64(i))
	}
	probe := columnar.NewInt64Builder("lk")
	var list []int32
	for i := 0; i < probeRows; i++ {
		probe.Append(int64(i * 7919 % buildRows))
		if i*7%10 < 6 {
			list = append(list, int32(i))
		}
	}
	keep, low := columnar.NewBitmap(buildRows), columnar.NewBitmap(buildRows)
	for r := 0; r < buildRows; r += 5 {
		keep.Set(r)
	}
	for r := 0; r < buildRows/5; r++ {
		low.Set(r)
	}
	idx, keys := build.Build().KeyIndex(), probe.Build()
	for _, bc := range []struct {
		name string
		rows []int32
		keep *columnar.Bitmap
		rng  *keyRange
	}{
		{"dense10kMask20", nil, keep, nil},
		{"dense10kList60", list, nil, nil},
		// The kept keys are the lowest fifth, and a fifth of the probe
		// keys fall inside their range.
		{"dense10kRange20", nil, low, &keyRange{lo: 0, hi: buildRows/5 - 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := probeJoin(idx, keys, bc.rows, bc.keep, bc.rng, 24); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStarJoin is the star join's micro-ruler: a fact of 1 M rows
// through a filter that keeps 60 % of them, then three joins handing on
// the fact's payload and one column of each dimension — the shape of a
// warm ROLAP statement's joins, up to the first operator that reads them.
// all-masked: each dimension masked to 20 % of its rows by a join
// predicate. selective-last: only the top join's, the ROLAP q01 shape (an
// unfiltered item join under the date_dim join that keeps a fifth), which
// runs first.
func BenchmarkStarJoin(b *testing.B) {
	const factRows = 1 << 20
	dimRows := []int{2_000, 10_000, 400}
	fb := columnar.NewInt64Builder("f_qty")
	keys := make([]*columnar.Int64Builder, len(dimRows))
	for d := range keys {
		keys[d] = columnar.NewInt64Builder(fmt.Sprintf("f_k%d", d))
	}
	for i := 0; i < factRows; i++ {
		fb.Append(int64(i*7) % 10)
		for d, n := range dimRows {
			keys[d].Append(int64(i*(7919+d*104729)) % int64(n))
		}
	}
	factCols := []columnar.Column{fb.Build()}
	for _, k := range keys {
		factCols = append(factCols, k.Build())
	}
	tables := map[string]*columnar.Table{"f": columnar.MustNewTable("f", factCols...)}
	for d, n := range dimRows {
		dk, dv, dn := columnar.NewInt64Builder(fmt.Sprintf("d%d_k", d)), columnar.NewInt64Builder(fmt.Sprintf("d%d_v", d)), columnar.NewStringBuilder(fmt.Sprintf("d%d_n", d))
		for r := 0; r < n; r++ {
			dk.Append(int64(r))
			dv.Append(int64(r*13) % 100)
			dn.Append(fmt.Sprintf("n%d", r%50))
		}
		name := fmt.Sprintf("d%d", d)
		tables[name] = columnar.MustNewTable(name, dk.Build(), dv.Build(), dn.Build())
	}
	for _, tc := range []struct {
		name   string
		masked []bool // per dimension, bottom first
	}{
		{"all-masked", []bool{true, true, true}},
		{"selective-last", []bool{false, false, true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var node plan.Node = &plan.Filter{Input: &plan.Scan{Table: "f"}, Pred: mustPred(b, "f_qty < 6")}
			var joins []*plan.Join
			for d := range dimRows {
				name := fmt.Sprintf("d%d", d)
				j := &plan.Join{Left: node, Table: name, LeftCol: fmt.Sprintf("f_k%d", d), RightCol: name + "_k"}
				if tc.masked[d] {
					j.Pred = mustPred(b, name+"_v < 20")
				}
				joins = append(joins, j)
				node = j
			}
			// Each join hands on the fact's payload, the dimension names
			// joined so far and the fact keys the joins above it probe
			// with.
			for d, j := range joins {
				j.Needed = []string{"f_qty"}
				for e := range joins {
					if e <= d {
						j.Needed = append(j.Needed, fmt.Sprintf("d%d_n", e))
					} else {
						j.Needed = append(j.Needed, fmt.Sprintf("f_k%d", e))
					}
				}
			}
			e := joinEngine(b, 24)
			e.tables = tables
			if _, err := e.exec(node, qctx{}); err != nil { // key indexes fill
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.exec(node, qctx{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
