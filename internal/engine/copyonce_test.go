package engine

import (
	"slices"
	"strings"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/fusion"
	"blugpu/internal/plan"
	"blugpu/internal/sqlparse"
)

// starEngine is newTestEngine plus two more dimensions, a snowflake off
// stores' fact key: months (m_month, m_quarter, m_name) and quarters
// (q_quarter, q_name, q_half), which joins on the months part's m_quarter.
func starEngine(t *testing.T, rows int) *Engine {
	t.Helper()
	e := newTestEngine(t, rows)
	mk, mq, mn := columnar.NewInt64Builder("m_month"), columnar.NewInt64Builder("m_quarter"), columnar.NewStringBuilder("m_name")
	for m := 1; m <= 12; m++ {
		mk.Append(int64(m))
		mq.Append(int64((m-1)/3 + 1))
		mn.Append([]string{"jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec"}[m-1])
	}
	qk, qn, qh := columnar.NewInt64Builder("q_quarter"), columnar.NewStringBuilder("q_name"), columnar.NewInt64Builder("q_half")
	for q := 1; q <= 4; q++ {
		qk.Append(int64(q))
		qn.Append([]string{"q1", "q2", "q3", "q4"}[q-1])
		qh.Append(int64((q-1)/2 + 1))
	}
	for _, tbl := range []*columnar.Table{
		columnar.MustNewTable("months", mk.Build(), mq.Build(), mn.Build()),
		columnar.MustNewTable("quarters", qk.Build(), qn.Build(), qh.Build()),
	} {
		if err := e.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// starFrom is the three-join body of the copy-once statements: every
// dimension narrowed by a predicate, each placed on its join.
const starFrom = "FROM sales JOIN stores ON s_store_sk = st_store_sk " +
	"JOIN months ON s_month = m_month JOIN quarters ON m_quarter = q_quarter " +
	"WHERE st_region = 'east' AND m_month <> 2 AND q_half = 1 "

// TestStarJoinCopiesOnce: a star join copies no values. Below the
// statement's first reader of lined-up values every part's columns are the
// base tables' own; no join key column nothing above reads is ever copied;
// and every column the statement reads is copied at most once, in
// materialize — by a derive or the result of an ORDER BY ... LIMIT. A
// group-by copies nothing on any path: the device off, it reads every
// column through its list; fused, its chain's entry is keyed by the parts'
// provenance where it lives, and a miss's fill is charged the gather.
func TestStarJoinCopiesOnce(t *testing.T) {
	keys := map[string]bool{"s_store_sk": true, "st_store_sk": true, "s_month": true, "m_month": true, "m_quarter": true, "q_quarter": true}
	const groupBy = "SELECT st_name, m_name, SUM(s_qty) AS q " + starFrom + "GROUP BY st_name, m_name"
	for _, tc := range []struct {
		name, sql string
		gpu       bool
		fused     bool // the group-by takes the fused device chain
		copies    int  // columns copied over the statement
	}{
		{"fused group-by", groupBy, true, true, 0},
		{"group-by, device off", groupBy, false, false, 0},
		{"derive", "SELECT st_name, m_name, SUM(s_qty * s_price) AS rev " + starFrom + "GROUP BY st_name, m_name", true, true, 4},
		{"order by limit", "SELECT st_name, m_name, s_qty " + starFrom + "ORDER BY s_qty DESC, st_name LIMIT 10", true, false, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := starEngine(t, 60_000)
			e.SetGPUEnabled(tc.gpu)
			e.thresholds.T1Rows = 1_000 // 12 500 rows reach the group-by
			base := make(map[columnar.Column]bool)
			for _, name := range []string{"sales", "stores", "months", "quarters"} {
				for _, c := range e.Table(name).Columns() {
					base[c] = true
				}
			}
			copied := make(map[string]int)
			copyHook = func(c columnar.Column) { copied[c.Name()]++ }
			defer func() { copyHook = nil }()

			// The joins alone: every part holds base columns, and nothing
			// was copied to get there.
			stmt, err := sqlparse.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			p, err := e.plan(stmt)
			if err != nil {
				t.Fatal(err)
			}
			var top *plan.Join
			for n := p.Root; n != nil && top == nil; n = plan.Input(n) {
				top, _ = n.(*plan.Join)
			}
			if top == nil {
				t.Fatalf("no join in %s", p.Root)
			}
			f, err := e.exec(top, qctx{})
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range f.parts {
				if pt.rows == nil {
					t.Errorf("part %s is unlisted under three dimension predicates", pt.tbl.Name())
				}
				for _, c := range pt.tbl.Columns() {
					if !base[c] {
						t.Errorf("join output column %q is not a base table's: a join copied it", c.Name())
					}
				}
			}
			if len(copied) != 0 {
				t.Fatalf("the joins copied %v", copied)
			}

			res, err := e.Query(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if res.Table.Rows() == 0 {
				t.Fatal("the statement must answer rows to copy")
			}
			total := 0
			for name, n := range copied {
				total += n
				if keys[name] {
					t.Errorf("join key %q, which nothing reads, was copied", name)
				}
				if n > 1 {
					t.Errorf("column %q copied %d times", name, n)
				}
			}
			if total != tc.copies {
				t.Errorf("%d columns copied (%v), want %d", total, copied, tc.copies)
			}
			for _, op := range res.Ops {
				if fused := strings.HasPrefix(op.Detail, "gpu/fused/"); op.Op == "groupby" && fused != tc.fused {
					t.Errorf("group-by took %q", op.Detail)
				}
			}
		})
	}
}

// TestEntryKeysMatchMaterialize: a stage-less chain keys its entry where
// it lives, and each key is the fusion.ColumnKey of the column
// materialize would have copied — so the cache finds what the copy would
// have found. The star below has no predicate, so every sales row
// matches and the fact part stays unlisted, while the dimension parts
// are listed with provenance; the filtered scan's one part is listed by
// its filter's step. Over lists no key fixes (a sort's: listed, no
// steps), the frame is materialized and keyed by content. Two arms hold
// the join's step rule: a filtered bottom's columns are keyed in place
// and differ from the same columns after a join that matches every row
// once, and a dimension listed by an earlier join keeps its key through
// such a join.
func TestEntryKeysMatchMaterialize(t *testing.T) {
	const star = "SELECT st_name, m_name, SUM(s_qty) AS q FROM sales JOIN stores ON s_store_sk = st_store_sk " +
		"JOIN months ON s_month = m_month GROUP BY st_name, m_name"
	const filtered = "SELECT s_month, SUM(s_qty) AS q FROM sales WHERE s_price < 40 GROUP BY s_month"
	for _, tc := range []struct {
		name   string
		sql    string
		unkey  bool // clear every part's steps, as a sort's lists would
		copies int  // columns entryKeys copies
		needed int  // the entry's columns
	}{
		{"join provenance", star, false, 0, 3},
		{"filter provenance", filtered, false, 0, 3},
		{"unkeyed lists", star, true, 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := starEngine(t, 6_000)
			agg := planAggregate(t, e, tc.sql)
			// Two frames of one input: one keyed in place, one copied.
			frames := make([]*frame, 2)
			listed := 0
			for i := range frames {
				f, err := e.exec(agg.Input, qctx{})
				if err != nil {
					t.Fatal(err)
				}
				for j := range f.parts {
					if f.parts[j].rows == nil {
						continue
					}
					listed++
					if tc.unkey {
						f.parts[j].steps = nil
					} else if !f.parts[j].keyed() {
						t.Fatalf("part %s is listed with no provenance", f.parts[j].tbl.Name())
					}
				}
				frames[i] = f
			}
			if listed == 0 {
				t.Fatal("no listed part to key")
			}
			f, mat := frames[0], frames[1]

			copies := 0
			copyHook = func(columnar.Column) { copies++ }
			defer func() { copyHook = nil }()
			cr := planFusedChain(agg)
			e.entryKeys(cr, f)
			if copies != tc.copies {
				t.Errorf("keying the entry copied %d columns, want %d", copies, tc.copies)
			}

			e.materialize(mat)
			var want []fusion.Key
			for _, c := range mat.table().Columns() {
				if cr.needed[c.Name()] {
					want = append(want, fusion.ColumnKey(c))
				}
			}
			if len(want) != tc.needed {
				t.Fatalf("%d needed columns, want %d", len(want), tc.needed)
			}
			if !slices.Equal(cr.entry, want) {
				t.Errorf("entry keys %v, want materialize's %v", cr.entry, want)
			}
		})
	}

	// keysOf runs the first node under sql's group-by that pick holds and
	// keys the named columns of its output.
	keysOf := func(t *testing.T, e *Engine, sql string, pick func(plan.Node) bool, cols ...string) []fusion.Key {
		t.Helper()
		agg := planAggregate(t, e, sql)
		var n plan.Node
		for cur := agg.Input; cur != nil && n == nil; cur = plan.Input(cur) {
			if pick(cur) {
				n = cur
			}
		}
		if n == nil {
			t.Fatalf("no such node under %s", agg)
		}
		f, err := e.exec(n, qctx{})
		if err != nil {
			t.Fatal(err)
		}
		return frameKeys(f, func(name string) bool { return slices.Contains(cols, name) })
	}
	isFilter := func(n plan.Node) bool { _, ok := n.(*plan.Filter); return ok }
	isJoin := func(table string) func(plan.Node) bool {
		return func(n plan.Node) bool { j, ok := n.(*plan.Join); return ok && j.Table == table }
	}

	t.Run("filtered bottom through identity join", func(t *testing.T) {
		// Every filtered sales row finds its one store: the join lists no
		// part, yet its output is keyed apart from the filter's.
		e := starEngine(t, 6_000)
		const sql = "SELECT st_name, SUM(s_qty) AS q FROM sales JOIN stores ON s_store_sk = st_store_sk " +
			"WHERE s_price < 40 GROUP BY st_name"
		bottom := keysOf(t, e, sql, isFilter, "s_qty")
		joined := keysOf(t, e, sql, isJoin("stores"), "s_qty")
		if len(bottom) != 1 || len(joined) != 1 || bottom[0].N != joined[0].N {
			t.Fatalf("filtered bottom %v, joined %v: want one s_qty key of one length each", bottom, joined)
		}
		if bottom[0] == joined[0] {
			t.Errorf("s_qty keyed %v both under and over the identity join", bottom[0])
		}
	})

	t.Run("listed dimension through identity join", func(t *testing.T) {
		// stores is listed by its join; every row then finds its month, so
		// the months join lists nothing, and st_name keeps its key.
		e := starEngine(t, 6_000)
		first := keysOf(t, e, star, isJoin("stores"), "st_name")
		second := keysOf(t, e, star, isJoin("months"), "st_name")
		if len(first) != 1 || !slices.Equal(first, second) {
			t.Errorf("st_name keyed %v after the stores join, %v after the months join", first, second)
		}
	})
}
