package expr_test

import (
	"math"
	"math/rand"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/expr"
	"blugpu/internal/plan"
	"blugpu/internal/sqlparse"
	"blugpu/internal/workload"
)

// parsePredicate lowers a WHERE clause the way the planner does; ok is
// false when the text is not a predicate the front end accepts.
func parsePredicate(where string) (expr.Expr, bool) {
	stmt, err := sqlparse.Parse("SELECT x FROM t WHERE " + where)
	if err != nil || stmt.Where == nil {
		return nil, false
	}
	e, err := plan.LowerExpr(stmt.Where)
	return e, err == nil
}

// fuzzTable gives every column the predicate names a type, a NULL density
// and values drawn from seed, over 0–299 rows; the values are small and
// salted with NaN, ±Inf and the empty string so comparisons hit both ways.
func fuzzTable(seed uint64, names []string) *columnar.Table {
	r := rand.New(rand.NewSource(int64(seed)))
	rows := r.Intn(300)
	cols := make([]columnar.Column, 0, len(names)+1)
	for _, name := range append(names, " rows") { // a table needs a column even when the predicate names none
		kind, density := r.Intn(3), []float64{0, 0.1, 1}[r.Intn(3)]
		vals := make([]columnar.Value, rows)
		for i := range vals {
			switch {
			case r.Float64() < density:
				vals[i] = columnar.NullValue(columnar.Type(kind))
			case kind == int(columnar.Int64):
				vals[i] = columnar.IntValue(int64(r.Intn(2001) - 1000))
			case kind == int(columnar.Float64):
				vals[i] = columnar.FloatValue([]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, float64(r.Intn(200)) / 4}[min(r.Intn(12), 4)])
			default:
				vals[i] = columnar.StringValue([]string{"", "a", "b", "NY", "CA"}[r.Intn(5)])
			}
		}
		col, err := columnar.ColumnFromValues(name, columnar.Type(kind), vals)
		if err != nil {
			panic(err)
		}
		cols = append(cols, col)
	}
	return columnar.MustNewTable("t", cols...)
}

// FuzzKernelsMatchReference mutates WHERE clauses — seeded with those of
// the 146 workload statements plus one of every construct they lack — and
// holds the kernels to the interpreter over a small random table: the
// same selection bitmap and computed column, or the same error.
func FuzzKernelsMatchReference(f *testing.F) {
	for i, q := range append(workload.BDInsights(), workload.CognosROLAP()...) {
		if stmt, err := sqlparse.Parse(q.SQL); err == nil && stmt.Where != nil {
			f.Add(stmt.Where.String(), uint64(i))
		}
	}
	for i, where := range []string{
		"a = 'NY' OR NOT (b <> 2.5) AND c IS NULL",
		"a IN (1, 2.5, 'x') OR b IN ('a', 'NY')",
		"a * 2 + b / 0 - c > 1.5",
		"(a > b) = (c <= 'b')",
		"'a' < 'b' AND 1 >= 1.0 OR 5 BETWEEN a AND b",
		"a BETWEEN 'a' AND 'b' AND NOT a",
		"a BETWEEN 1 AND 2.5 OR b BETWEEN 7 AND 0 OR c BETWEEN -1.5 AND 1000",
		"a IN ('a', 'NY', '') AND NOT b IN ('CA', 'b')",
	} {
		f.Add(where, uint64(i))
	}
	f.Fuzz(func(t *testing.T, where string, seed uint64) {
		e, ok := parsePredicate(where)
		if !ok {
			t.Skip()
		}
		expr.CheckAgainstReference(t, fuzzTable(seed, expr.Columns(e)), e, false)
	})
}
