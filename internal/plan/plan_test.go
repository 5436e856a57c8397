package plan

import (
	"strings"
	"testing"

	"blugpu/internal/sqlparse"
)

func build(t *testing.T, sql string) *Plan {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Build(stmt)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func buildErr(t *testing.T, sql string) error {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Build(stmt)
	if err == nil {
		t.Fatalf("Build(%q) should fail", sql)
	}
	return err
}

func TestSimpleScanProject(t *testing.T) {
	p := build(t, "SELECT a, b FROM t")
	proj, ok := p.Root.(*Project)
	if !ok {
		t.Fatalf("root = %T", p.Root)
	}
	if _, ok := proj.Input.(*Scan); !ok {
		t.Fatalf("input = %T", proj.Input)
	}
	if len(p.Output) != 2 || p.Output[0] != "a" {
		t.Errorf("output = %v", p.Output)
	}
}

func TestStarNoProject(t *testing.T) {
	p := build(t, "SELECT * FROM t LIMIT 3")
	lim := p.Root.(*Limit)
	if lim.N != 3 {
		t.Errorf("limit = %d", lim.N)
	}
	if _, ok := lim.Input.(*Scan); !ok {
		t.Errorf("star query should not project, got %T", lim.Input)
	}
}

func TestFilterPipeline(t *testing.T) {
	p := build(t, "SELECT a FROM t WHERE b > 5 AND c = 'x'")
	proj := p.Root.(*Project)
	f := proj.Input.(*Filter)
	if !strings.Contains(f.Pred.String(), "AND") {
		t.Errorf("pred = %s", f.Pred)
	}
}

func TestJoinChain(t *testing.T) {
	p := build(t, "SELECT a FROM f JOIN d1 ON k1 = r1 JOIN d2 ON k2 = r2")
	proj := p.Root.(*Project)
	j2 := proj.Input.(*Join)
	if j2.Table != "d2" || j2.LeftCol != "k2" {
		t.Errorf("outer join = %+v", j2)
	}
	j1 := j2.Left.(*Join)
	if j1.Table != "d1" {
		t.Errorf("inner join = %+v", j1)
	}
}

func TestAggregatePlan(t *testing.T) {
	p := build(t, `SELECT region, SUM(qty) AS total, COUNT(*) AS cnt, AVG(price) AS ap
		FROM s GROUP BY region`)
	proj := p.Root.(*Project)
	agg := proj.Input.(*Aggregate)
	if len(agg.Keys) != 1 || agg.Keys[0] != "region" {
		t.Fatalf("keys = %v", agg.Keys)
	}
	if len(agg.Aggs) != 3 {
		t.Fatalf("aggs = %+v", agg.Aggs)
	}
	if agg.Aggs[0].Func != AggSum || agg.Aggs[0].Out != "total" {
		t.Errorf("agg0 = %+v", agg.Aggs[0])
	}
	if agg.Aggs[1].Func != AggCount || agg.Aggs[1].Column != "" {
		t.Errorf("agg1 = %+v", agg.Aggs[1])
	}
	if agg.Aggs[2].Func != AggAvg || agg.Aggs[2].Out != "ap" {
		t.Errorf("agg2 = %+v", agg.Aggs[2])
	}
	if len(p.Output) != 4 || p.Output[1] != "total" {
		t.Errorf("output = %v", p.Output)
	}
}

func TestAggregateExprArgHoisted(t *testing.T) {
	p := build(t, "SELECT region, SUM(qty * price) AS rev FROM s GROUP BY region")
	proj := p.Root.(*Project)
	agg := proj.Input.(*Aggregate)
	d := agg.Input.(*Derive)
	if len(d.Cols) != 1 || !strings.Contains(d.Cols[0].Expr.String(), "*") {
		t.Errorf("derive = %+v", d.Cols)
	}
	if agg.Aggs[0].Column != d.Cols[0].Name {
		t.Errorf("agg should reference derived column: %+v vs %+v", agg.Aggs[0], d.Cols[0])
	}
}

func TestHavingRewrittenToFilter(t *testing.T) {
	p := build(t, "SELECT region, SUM(qty) AS total FROM s GROUP BY region HAVING SUM(qty) > 10")
	proj := p.Root.(*Project)
	f := proj.Input.(*Filter)
	if !strings.Contains(f.Pred.String(), "total") {
		t.Errorf("having should reference the aggregate output: %s", f.Pred)
	}
	if _, ok := f.Input.(*Aggregate); !ok {
		t.Errorf("having input = %T", f.Input)
	}
}

func TestOrderByAliasAndLimit(t *testing.T) {
	p := build(t, "SELECT region, SUM(qty) AS total FROM s GROUP BY region ORDER BY total DESC LIMIT 5")
	lim := p.Root.(*Limit)
	srt := lim.Input.(*Sort)
	if len(srt.Keys) != 1 || srt.Keys[0].Column != "total" || !srt.Keys[0].Desc {
		t.Errorf("sort keys = %+v", srt.Keys)
	}
}

func TestOrderByAggregateExpression(t *testing.T) {
	p := build(t, "SELECT region, SUM(qty) FROM s GROUP BY region ORDER BY SUM(qty) DESC")
	lim := p.Root.(*Sort)
	if len(lim.Keys) != 1 || !strings.HasPrefix(lim.Keys[0].Column, "_agg") {
		t.Errorf("sort keys = %+v", lim.Keys)
	}
}

func TestRankWindow(t *testing.T) {
	p := build(t, `SELECT region, SUM(qty) AS total,
		RANK() OVER (ORDER BY total DESC) AS rnk
		FROM s GROUP BY region`)
	proj := p.Root.(*Project)
	w := proj.Input.(*Window)
	if w.Out != "rnk" || len(w.OrderBy) != 1 || !w.OrderBy[0].Desc {
		t.Errorf("window = %+v", w)
	}
	if _, ok := w.Input.(*Aggregate); !ok {
		t.Errorf("window input = %T", w.Input)
	}
}

func TestValidationErrors(t *testing.T) {
	buildErr(t, "SELECT region, qty FROM s GROUP BY region")          // qty not grouped
	buildErr(t, "SELECT * FROM s GROUP BY region")                    // star with group
	buildErr(t, "SELECT SUM(qty) FROM s")                             // agg without group by
	buildErr(t, "SELECT SUM(a, b) FROM s GROUP BY a")                 // two args
	buildErr(t, "SELECT MIN(*) FROM s GROUP BY a")                    // min(*)
	buildErr(t, "SELECT a FROM s HAVING a > 1")                       // having without group
	buildErr(t, "SELECT a FROM s ORDER BY a + 1")                     // order by expression
	buildErr(t, "SELECT a, SUM(b) FROM s GROUP BY a ORDER BY MAX(c)") // agg not selected
}

func TestNegativeLiteralFolding(t *testing.T) {
	p := build(t, "SELECT a FROM t WHERE a > -5")
	f := p.Root.(*Project).Input.(*Filter)
	if !strings.Contains(f.Pred.String(), "-5") {
		t.Errorf("pred = %s", f.Pred)
	}
}

func TestInListLiteralsOnly(t *testing.T) {
	buildErr(t, "SELECT a FROM t WHERE a IN (b, c)")
	p := build(t, "SELECT a FROM t WHERE a IN (1, 2, 3)")
	if !strings.Contains(p.Root.(*Project).Input.(*Filter).Pred.String(), "IN") {
		t.Error("IN predicate missing")
	}
}

func TestPlanStringRendering(t *testing.T) {
	p := build(t, "SELECT region, SUM(qty) AS total FROM s WHERE y = 3 GROUP BY region ORDER BY total LIMIT 2")
	s := p.Root.String()
	for _, want := range []string{"scan(s)", "filter", "aggregate", "project", "sort", "limit"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan rendering %q missing %s", s, want)
		}
	}
}

// findNode returns the first node of type T on the plan's spine.
func findNode[T Node](n Node) (T, bool) {
	for n != nil {
		if x, ok := n.(T); ok {
			return x, true
		}
		switch x := n.(type) {
		case *Limit:
			n = x.Input
		case *Sort:
			n = x.Input
		case *Project:
			n = x.Input
		case *Filter:
			n = x.Input
		case *Window:
			n = x.Input
		case *Aggregate:
			n = x.Input
		case *Derive:
			n = x.Input
		default:
			n = nil
		}
	}
	var zero T
	return zero, false
}

// TestTopK: a LIMIT k directly on a Sort gives the Sort its k, and the
// Sort hands k and its keys, in the group-by's own output names, to the
// Aggregate below only when a Project of bare columns is all that lies
// between them.
func TestTopK(t *testing.T) {
	cases := []struct {
		name    string
		sql     string
		sortK   int
		aggK    int
		aggKeys string
	}{
		{"aggregate output", "SELECT region, SUM(qty) AS total FROM s GROUP BY region ORDER BY total DESC LIMIT 10", 10, 10, "total desc"},
		{"group key through an alias", "SELECT region AS r, SUM(qty) AS total FROM s GROUP BY region ORDER BY r, total DESC LIMIT 3", 3, 3, "region,total desc"},
		{"aggregate call", "SELECT region, SUM(qty) FROM s GROUP BY region ORDER BY SUM(qty) LIMIT 4", 4, 4, "_agg0"},
		{"having", "SELECT region, SUM(qty) AS total FROM s GROUP BY region HAVING SUM(qty) > 5 ORDER BY total DESC LIMIT 10", 10, 0, ""},
		{"rank", "SELECT region, SUM(qty) AS total, RANK() OVER (ORDER BY total DESC) AS rnk FROM s GROUP BY region ORDER BY total DESC LIMIT 10", 10, 0, ""},
		{"expression in the select list", "SELECT region, SUM(qty) * 2 AS dbl, SUM(qty) AS total FROM s GROUP BY region ORDER BY total DESC LIMIT 10", 10, 0, ""},
		{"limit 0", "SELECT region, SUM(qty) AS total FROM s GROUP BY region ORDER BY total DESC LIMIT 0", 0, 0, ""},
		{"no limit", "SELECT region, SUM(qty) AS total FROM s GROUP BY region ORDER BY total DESC", 0, 0, ""},
		{"no aggregate", "SELECT region, qty FROM s ORDER BY qty LIMIT 5", 5, 0, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := build(t, c.sql)
			s, ok := findNode[*Sort](p.Root)
			if !ok {
				t.Fatalf("no sort in %s", p.Root)
			}
			if s.K != c.sortK {
				t.Errorf("sort k = %d, want %d", s.K, c.sortK)
			}
			agg, ok := findNode[*Aggregate](p.Root)
			if !ok {
				if c.aggK != 0 {
					t.Fatalf("no aggregate in %s", p.Root)
				}
				return
			}
			if agg.TopK != c.aggK || joinSort(agg.TopKeys) != c.aggKeys {
				t.Errorf("aggregate top-k %d [%s], want %d [%s]", agg.TopK, joinSort(agg.TopKeys), c.aggK, c.aggKeys)
			}
		})
	}
}
