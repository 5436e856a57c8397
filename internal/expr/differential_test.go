package expr

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"blugpu/internal/columnar"
)

// CheckAgainstReference holds the kernels to the interpreter's answers for
// e over tbl — as a WHERE predicate and as a computed column — at degrees
// 1, 2 and 8. Exported so the fuzz target in package expr_test (which can
// import the SQL front end) shares it.
//
// Errors: the kernels raise a comparison's type error at bind time, the
// interpreter at the first row whose operands are both non-NULL. With
// strict set the two must report exactly the same thing; without it the
// kernels may report a "cannot compare" the interpreter never reached (no
// such row) or met at a later comparison in tree order.
func CheckAgainstReference(t testing.TB, tbl *columnar.Table, e Expr, strict bool) {
	t.Helper()
	wantSel, selErr := refEvalPredicate(tbl, e)
	wantCol, colErr := refEvalColumn(tbl, "v", e)
	for _, degree := range []int{1, 2, 8} {
		sel, err := EvalPredicate(tbl, e, degree)
		switch {
		case !errorsAgree(err, selErr, strict):
			t.Errorf("%s where, degree %d: error %v, interpreter %v", e, degree, err, selErr)
		case err == nil && !reflect.DeepEqual(sel.Words(), wantSel.Words()):
			t.Errorf("%s where, degree %d: selected %v, interpreter %v", e, degree, sel.Indices(), wantSel.Indices())
		}
		col, err := EvalColumn(tbl, "v", e, degree)
		switch {
		case !errorsAgree(err, colErr, strict):
			t.Errorf("%s column, degree %d: error %v, interpreter %v", e, degree, err, colErr)
		case err == nil && !sameColumn(col, wantCol):
			t.Errorf("%s column, degree %d: differs from interpreter%s", e, degree, firstDifference(col, wantCol))
		}
	}
}

func errorsAgree(got, want error, strict bool) bool {
	switch {
	case got == nil || want != nil && got.Error() == want.Error():
		return (got == nil) == (want == nil)
	case strict:
		return false
	}
	return strings.Contains(got.Error(), "cannot compare")
}

// sameColumn is bit equality: type, length, every value (floats by bit
// pattern, including what sits under NULL rows), NULL positions, the
// dictionary, and whether a null bitmap is allocated at all.
func sameColumn(a, b columnar.Column) bool {
	type nullable interface{ Nulls() *columnar.Bitmap }
	return a.Type() == b.Type() && a.Len() == b.Len() && a.ContentHash() == b.ContentHash() &&
		(a.(nullable).Nulls() == nil) == (b.(nullable).Nulls() == nil)
}

func firstDifference(got, want columnar.Column) string {
	if got.Type() != want.Type() || got.Len() != want.Len() {
		return fmt.Sprintf(": %v×%d, want %v×%d", got.Type(), got.Len(), want.Type(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		g, w := got.Value(i), want.Value(i)
		if g.Null != w.Null || g.I != w.I || math.Float64bits(g.F) != math.Float64bits(w.F) || g.S != w.S {
			return fmt.Sprintf(": row %d = %v, want %v", i, g, w)
		}
	}
	return " only under NULL rows, in the dictionary or in the null bitmap's presence"
}

// diffTable builds i1 i2 (int), f1 f2 (float, with NaN, ±Inf, ±0), s1 s2
// (string, different dictionaries) over rows rows. density is the share of
// NULLs per column: 0 none, 1 all, between some.
func diffTable(rows int, density float64, seed int64) *columnar.Table {
	r := rand.New(rand.NewSource(seed))
	edgeInts := []int64{0, 1, -1, 5, 7, math.MaxInt64, math.MinInt64, 1<<53 + 1}
	edgeFloats := []float64{0, math.Copysign(0, -1), 1.5, -2.5, math.NaN(), math.Inf(1), math.Inf(-1), 5, 1 << 53}
	words1, words2 := []string{"a", "b", "c", "", "zz"}, []string{"b", "bb", "c"}
	i1, i2 := columnar.NewInt64Builder("i1"), columnar.NewInt64Builder("i2")
	f1, f2 := columnar.NewFloat64Builder("f1"), columnar.NewFloat64Builder("f2")
	s1, s2 := columnar.NewStringBuilder("s1"), columnar.NewStringBuilder("s2")
	null := func() bool { return r.Float64() < density }
	for i := 0; i < rows; i++ {
		if null() {
			i1.AppendNull()
		} else if i%3 == 0 {
			i1.Append(edgeInts[r.Intn(len(edgeInts))])
		} else {
			i1.Append(int64(r.Intn(13) - 6))
		}
		if null() {
			i2.AppendNull()
		} else {
			i2.Append(int64(r.Intn(7) - 3))
		}
		if null() {
			f1.AppendNull()
		} else if i%3 == 0 {
			f1.Append(edgeFloats[r.Intn(len(edgeFloats))])
		} else {
			f1.Append(float64(r.Intn(25)-12) / 2)
		}
		if null() {
			f2.AppendNull()
		} else {
			f2.Append(float64(r.Intn(7) - 3))
		}
		if null() {
			s1.AppendNull()
		} else {
			s1.Append(words1[r.Intn(len(words1))])
		}
		if null() {
			s2.AppendNull()
		} else {
			s2.Append(words2[r.Intn(len(words2))])
		}
	}
	return columnar.MustNewTable("t", i1.Build(), i2.Build(), f1.Build(), f2.Build(), s1.Build(), s2.Build())
}

// diffExprs enumerates every node type over every operand-type pairing
// (int, float, string, int/float mixed both ways, string against number),
// with columns, literals on either side, NULL literals, NaN and ±Inf, / 0,
// literals absent from the dictionary, numbers and strings read as truth
// values, and booleans read as numbers.
func diffExprs() []Expr {
	null := func(t columnar.Type) Expr { return &Lit{columnar.NullValue(t)} }
	ints := []Expr{&Col{"i1"}, &Col{"i2"}, Int(5), Int(0), null(columnar.Int64)}
	floats := []Expr{&Col{"f1"}, &Col{"f2"}, Float(2.5), Float(0), Float(math.NaN()), Float(math.Inf(-1)), null(columnar.Float64)}
	strs := []Expr{&Col{"s1"}, &Col{"s2"}, Str("b"), Str("bb"), Str(""), null(columnar.String)}
	numbers := append(append([]Expr{}, ints...), floats...)
	var out []Expr
	cross := func(ls, rs []Expr, node func(l, r Expr) Expr) {
		for _, l := range ls {
			for _, r := range rs {
				out = append(out, node(l, r))
			}
		}
	}
	for op := Eq; op <= Ge; op++ {
		cmp := func(l, r Expr) Expr { return &Cmp{Op: op, Left: l, Right: r} }
		cross(numbers, numbers, cmp)
		cross(strs, strs, cmp)
		cross(strs, ints[1:3], cmp) // string against number: an error
		cross(floats[1:3], strs, cmp)
	}
	for op := Add; op <= Div; op++ {
		cross(numbers, numbers, func(l, r Expr) Expr { return &Arith{Op: op, Left: l, Right: r} })
	}
	nullable := &Cmp{Op: Gt, Left: &Col{"i1"}, Right: Int(0)}
	truths := []Expr{
		nullable, &Cmp{Op: Lt, Left: &Col{"f1"}, Right: Float(2.5)}, &Cmp{Op: Eq, Left: &Col{"s1"}, Right: Str("b")},
		&IsNull{X: &Col{"i2"}}, null(columnar.Int64), Int(1), Int(0), Float(1.5), Str("x"),
		&Col{"i2"}, &Col{"f1"}, &Col{"s1"},
	}
	for op := And; op <= Or; op++ {
		cross(truths, truths, func(l, r Expr) Expr { return &Logic{Op: op, Left: l, Right: r} })
	}
	sum := &Arith{Op: Add, Left: &Col{"i1"}, Right: &Col{"i2"}}
	quot := &Arith{Op: Div, Left: &Col{"f1"}, Right: &Col{"i2"}}
	for _, x := range truths {
		out = append(out, &Not{x}, &Not{&Not{x}})
	}
	for _, x := range []Expr{&Col{"i1"}, &Col{"f1"}, &Col{"s1"}, Int(5), Float(2.5), Str("b"), sum, quot, null(columnar.Float64)} {
		for _, b := range [][2]Expr{
			{Int(0), Int(5)}, {Float(-1.5), Int(7)}, {&Col{"i2"}, &Col{"f2"}}, {Str("a"), Str("c")}, {&Col{"s2"}, Str("zz")},
			{null(columnar.Int64), Int(5)}, {Float(math.NaN()), Float(math.Inf(1))}, {Int(7), Int(0)}, {Str("a"), Int(5)},
		} {
			out = append(out, &Between{X: x, Lo: b[0], Hi: b[1]})
		}
		for _, vals := range [][]columnar.Value{
			nil,
			{columnar.IntValue(5), columnar.IntValue(0)},
			{columnar.FloatValue(5), columnar.FloatValue(math.NaN()), columnar.FloatValue(1.5)},
			{columnar.StringValue("b"), columnar.StringValue("zz"), columnar.StringValue("nope")},
			{columnar.StringValue("x"), columnar.IntValue(7), columnar.FloatValue(2.5)}, // uncoercible entries are skipped
			{columnar.NullValue(columnar.Int64), columnar.NullValue(columnar.Float64), columnar.NullValue(columnar.String)},
			{columnar.IntValue(1<<53 + 1), columnar.FloatValue(1 << 53)},
		} {
			out = append(out, &In{X: x, Vals: vals})
		}
	}
	in := &In{X: &Col{"i2"}, Vals: []columnar.Value{columnar.IntValue(1)}}
	for _, x := range append(append(append([]Expr{sum, quot, nullable, in}, ints...), floats...), strs...) {
		out = append(out, &IsNull{X: x}, &IsNull{X: x, Negate: true})
	}
	// Booleans as numbers: compared, added, tested for membership.
	return append(out,
		&Cmp{Op: Ge, Left: nullable, Right: in}, &Cmp{Op: Eq, Left: nullable, Right: Int(1)}, &Cmp{Op: Lt, Left: Float(0.5), Right: in},
		&Arith{Op: Add, Left: nullable, Right: in}, &Arith{Op: Div, Left: &Col{"f2"}, Right: nullable},
		&In{X: nullable, Vals: []columnar.Value{columnar.IntValue(1)}},
		&Logic{Op: Or, Left: &Between{X: sum, Lo: Int(-2), Hi: quot}, Right: &Not{&IsNull{X: quot}}},
	)
}

// TestKernelsMatchReference is the table-driven differential test: every
// node type × operand types × NULL density {none, some, all} × row counts
// around the 64-row word boundary × degree {1, 2, 8}. The 20 000-row table
// is the one the pool really splits (kernelGrain rows per worker).
func TestKernelsMatchReference(t *testing.T) {
	exprs := diffExprs()
	for _, density := range []float64{0, 0.2, 1} {
		for _, rows := range []int{0, 1, 63, 64, 65, 1000} {
			tbl := diffTable(rows, density, int64(rows)+7)
			for _, e := range exprs {
				CheckAgainstReference(t, tbl, e, density == 0 && rows > 0)
			}
		}
	}
	if big := diffTable(20_000, 0.2, 1); !testing.Short() {
		for i := 0; i < len(exprs); i += 5 {
			CheckAgainstReference(t, big, exprs[i], false)
		}
	}
}

// TestTypeErrorsAreRaisedAtBindTime pins the error text and the one
// behaviour change against the interpreter: a mismatched comparison is
// reported even when no row would have evaluated it.
func TestTypeErrorsAreRaisedAtBindTime(t *testing.T) {
	for _, c := range []struct {
		e    Expr
		want string
	}{
		{&Cmp{Op: Gt, Left: &Col{"i1"}, Right: Str("x")}, "expr: (i1 > 'x'): cannot compare int64 with string"},
		{&Between{X: &Col{"s1"}, Lo: Str("a"), Hi: Int(5)}, "expr: (s1 <= 5): cannot compare string with int64"},
		{&Logic{Op: And, Left: &Cmp{Op: Eq, Left: Int(1), Right: Int(2)}, Right: &Cmp{Op: Eq, Left: Float(1), Right: &Col{"s2"}}},
			"expr: (1 = s2): cannot compare float64 with string"},
		{&Arith{Op: Add, Left: &Col{"s1"}, Right: Int(1)}, "arithmetic on string operand"},
		{&Not{&Col{"nope"}}, `expr: unknown column "nope"`},
	} {
		for _, rows := range []int{0, 3} {
			tbl := diffTable(rows, 0, 1)
			if _, err := EvalPredicate(tbl, c.e, 2); err == nil || err.Error() != c.want {
				t.Errorf("%s over %d rows: error %v, want %s", c.e, rows, err, c.want)
			}
			if _, err := EvalColumn(tbl, "v", c.e, 2); err == nil || err.Error() != c.want {
				t.Errorf("%s over %d rows, as a column: error %v, want %s", c.e, rows, err, c.want)
			}
		}
	}
	// A NULL literal decides the comparison before its type is looked at.
	e := &Cmp{Op: Eq, Left: &Col{"s1"}, Right: &Lit{columnar.NullValue(columnar.Int64)}}
	if sel, err := EvalPredicate(diffTable(10, 0, 1), e, 1); err != nil || sel.Count() != 0 {
		t.Errorf("%s: %v, %v; want no row and no error", e, sel, err)
	}
}

// TestPredicateAllocations is the allocation guard: the interpreter spent
// two allocations per row on BETWEEN; the kernels spend a
// handful per worker.
func TestPredicateAllocations(t *testing.T) {
	tbl, pred := benchTable(100_000), &Between{X: &Col{"k"}, Lo: Int(100), Hi: Int(5000)}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := EvalPredicate(tbl, pred, 8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 64 {
		t.Errorf("BETWEEN over 100 000 rows at degree 8: %.0f allocations, want < 64", allocs)
	}
}

// benchTable is k (int, 1 in 16 NULL), p (float), s (string, 50 values).
func benchTable(rows int) *columnar.Table {
	r := rand.New(rand.NewSource(1))
	k, p, s := columnar.NewInt64Builder("k"), columnar.NewFloat64Builder("p"), columnar.NewStringBuilder("s")
	for i := 0; i < rows; i++ {
		if i%16 == 5 {
			k.AppendNull()
		} else {
			k.Append(int64(r.Intn(10_000)))
		}
		p.Append(r.Float64() * 100)
		s.Append(fmt.Sprintf("state-%02d", r.Intn(50)))
	}
	return columnar.MustNewTable("b", k.Build(), p.Build(), s.Build())
}

func benchPredicate(b *testing.B, pred Expr) {
	tbl := benchTable(1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalPredicate(tbl, pred, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredicateIntBetween(b *testing.B) {
	benchPredicate(b, &Between{X: &Col{"k"}, Lo: Int(100), Hi: Int(5000)})
}

func BenchmarkPredicateStringEq(b *testing.B) {
	benchPredicate(b, &Cmp{Op: Eq, Left: &Col{"s"}, Right: Str("state-07")})
}

func BenchmarkPredicateAndOr(b *testing.B) {
	benchPredicate(b, &Logic{Op: Or,
		Left: &Logic{Op: And,
			Left:  &Cmp{Op: Gt, Left: &Col{"k"}, Right: Int(9000)},
			Right: &Cmp{Op: Lt, Left: &Col{"p"}, Right: Float(25)}},
		Right: &IsNull{X: &Col{"k"}}})
}
