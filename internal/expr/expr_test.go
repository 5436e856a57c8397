package expr

import (
	"slices"
	"strings"
	"testing"

	"blugpu/internal/columnar"
)

func testTable(t *testing.T) *columnar.Table {
	t.Helper()
	id := columnar.NewInt64Builder("id")
	qty := columnar.NewInt64Builder("qty")
	price := columnar.NewFloat64Builder("price")
	state := columnar.NewStringBuilder("state")
	rows := []struct {
		id, qty int64
		price   float64
		state   string
		nullQty bool
	}{
		{1, 10, 1.5, "NY", false},
		{2, 20, 2.5, "CA", false},
		{3, 0, 0.5, "TX", true},
		{4, 40, 4.0, "NY", false},
	}
	for _, r := range rows {
		id.Append(r.id)
		if r.nullQty {
			qty.AppendNull()
		} else {
			qty.Append(r.qty)
		}
		price.Append(r.price)
		state.Append(r.state)
	}
	return columnar.MustNewTable("t", id.Build(), qty.Build(), price.Build(), state.Build())
}

// evalRow evaluates e over every row of tbl with the bound kernels and
// returns row i's value; a predicate comes back as Int64 1/0/NULL.
func evalRow(tbl *columnar.Table, e Expr, i int) (columnar.Value, error) {
	col, err := EvalColumn(tbl, "v", e, 1)
	if err != nil {
		return columnar.Value{}, err
	}
	return col.Value(i), nil
}

func TestColAndLit(t *testing.T) {
	tbl := testTable(t)
	v, err := evalRow(tbl, &Col{"id"}, 1)
	if err != nil || v.I != 2 {
		t.Fatalf("col eval = %v, %v", v, err)
	}
	if _, err := evalRow(tbl, &Col{"missing"}, 0); err == nil {
		t.Error("unknown column should error")
	}
	if v, _ := evalRow(tbl, Str("x"), 0); v.S != "x" {
		t.Error("string literal broken")
	}
	if Int(5).String() != "5" || Str("a").String() != "'a'" {
		t.Error("literal String() broken")
	}
}

func TestArith(t *testing.T) {
	tbl := testTable(t)
	// qty * price mixes int and float.
	e := &Arith{Op: Mul, Left: &Col{"qty"}, Right: &Col{"price"}}
	tt, err := e.TypeOf(tbl)
	if err != nil || tt != columnar.Float64 {
		t.Fatalf("TypeOf = %v, %v", tt, err)
	}
	v, err := evalRow(tbl, e, 1)
	if err != nil || v.F != 50 {
		t.Fatalf("20*2.5 = %v, %v", v, err)
	}
	// NULL propagates.
	v, _ = evalRow(tbl, e, 2)
	if !v.Null {
		t.Error("NULL operand should give NULL result")
	}
	// Int division and division by zero.
	if v, _ := evalRow(tbl, &Arith{Op: Div, Left: Int(7), Right: Int(2)}, 0); v.I != 3 {
		t.Errorf("7/2 = %v, want 3 (int division)", v)
	}
	if v, _ := evalRow(tbl, &Arith{Op: Div, Left: Int(7), Right: Int(0)}, 0); !v.Null {
		t.Error("division by zero should be NULL")
	}
	// Arithmetic on strings is an error.
	bad := &Arith{Op: Add, Left: &Col{"state"}, Right: Int(1)}
	if _, err := evalRow(tbl, bad, 0); err == nil {
		t.Error("string arithmetic should error")
	}
}

func TestCmp(t *testing.T) {
	tbl := testTable(t)
	gt := &Cmp{Op: Gt, Left: &Col{"qty"}, Right: Int(15)}
	if v, _ := evalRow(tbl, gt, 0); v.I != 0 {
		t.Error("10 > 15 should be false")
	}
	if v, _ := evalRow(tbl, gt, 1); v.I != 1 {
		t.Error("20 > 15 should be true")
	}
	if v, _ := evalRow(tbl, gt, 2); !v.Null {
		t.Error("NULL > 15 should be NULL")
	}
	// Mixed int/float comparison coerces.
	mix := &Cmp{Op: Eq, Left: &Col{"price"}, Right: Int(4)}
	if v, _ := evalRow(tbl, mix, 3); v.I != 1 {
		t.Error("4.0 = 4 should be true after coercion")
	}
	// String comparison.
	se := &Cmp{Op: Eq, Left: &Col{"state"}, Right: Str("NY")}
	if v, _ := evalRow(tbl, se, 0); v.I != 1 {
		t.Error("state = 'NY' should match row 0")
	}
	// Cross string/int comparison errors.
	bad := &Cmp{Op: Eq, Left: &Col{"state"}, Right: Int(1)}
	if _, err := evalRow(tbl, bad, 0); err == nil {
		t.Error("string/int comparison should error")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	tbl := testTable(t)
	null := &Cmp{Op: Gt, Left: &Col{"qty"}, Right: Int(0)} // NULL on row 2
	truev := &Cmp{Op: Eq, Left: Int(1), Right: Int(1)}
	falsev := &Cmp{Op: Eq, Left: Int(1), Right: Int(2)}

	// FALSE AND NULL = FALSE
	if v, _ := evalRow(tbl, &Logic{Op: And, Left: falsev, Right: null}, 2); v.Null || v.I != 0 {
		t.Error("FALSE AND NULL should be FALSE")
	}
	// TRUE AND NULL = NULL
	if v, _ := evalRow(tbl, &Logic{Op: And, Left: truev, Right: null}, 2); !v.Null {
		t.Error("TRUE AND NULL should be NULL")
	}
	// TRUE OR NULL = TRUE
	if v, _ := evalRow(tbl, &Logic{Op: Or, Left: truev, Right: null}, 2); v.Null || v.I != 1 {
		t.Error("TRUE OR NULL should be TRUE")
	}
	// NOT NULL = NULL
	if v, _ := evalRow(tbl, &Not{null}, 2); !v.Null {
		t.Error("NOT NULL should be NULL")
	}
	if v, _ := evalRow(tbl, &Not{truev}, 0); v.I != 0 {
		t.Error("NOT TRUE should be FALSE")
	}
}

func TestBetweenInIsNull(t *testing.T) {
	tbl := testTable(t)
	b := &Between{X: &Col{"qty"}, Lo: Int(10), Hi: Int(20)}
	if v, _ := evalRow(tbl, b, 0); v.I != 1 {
		t.Error("10 BETWEEN 10 AND 20 should be true")
	}
	if v, _ := evalRow(tbl, b, 3); v.I != 0 {
		t.Error("40 BETWEEN 10 AND 20 should be false")
	}
	in := &In{X: &Col{"state"}, Vals: []columnar.Value{columnar.StringValue("CA"), columnar.StringValue("TX")}}
	if v, _ := evalRow(tbl, in, 1); v.I != 1 {
		t.Error("'CA' IN ('CA','TX') should be true")
	}
	if v, _ := evalRow(tbl, in, 0); v.I != 0 {
		t.Error("'NY' IN ('CA','TX') should be false")
	}
	isn := &IsNull{X: &Col{"qty"}}
	if v, _ := evalRow(tbl, isn, 2); v.I != 1 {
		t.Error("NULL IS NULL should be true")
	}
	notn := &IsNull{X: &Col{"qty"}, Negate: true}
	if v, _ := evalRow(tbl, notn, 0); v.I != 1 {
		t.Error("10 IS NOT NULL should be true")
	}
}

func TestEvalPredicate(t *testing.T) {
	tbl := testTable(t)
	// WHERE state = 'NY' AND qty > 5  -> rows 0, 3
	pred := &Logic{
		Op:    And,
		Left:  &Cmp{Op: Eq, Left: &Col{"state"}, Right: Str("NY")},
		Right: &Cmp{Op: Gt, Left: &Col{"qty"}, Right: Int(5)},
	}
	rows, err := EvalPredicate(tbl, pred, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rows, []int32{0, 3}) {
		t.Errorf("selection = %v", rows)
	}
	// NULL rows are excluded (row 2 has NULL qty).
	all := &Cmp{Op: Ge, Left: &Col{"qty"}, Right: Int(0)}
	if rows, _ = EvalPredicate(tbl, all, 1); !slices.Equal(rows, []int32{0, 1, 3}) {
		t.Errorf("selection = %v: NULL predicate result must exclude the row", rows)
	}
	// Type errors surface.
	if _, err := EvalPredicate(tbl, &Col{"missing"}, 1); err == nil {
		t.Error("unknown column in predicate should error")
	}
}

func TestStringRendering(t *testing.T) {
	e := &Logic{
		Op:    And,
		Left:  &Cmp{Op: Le, Left: &Col{"a"}, Right: Int(3)},
		Right: &Between{X: &Col{"b"}, Lo: Int(1), Hi: Int(2)},
	}
	s := e.String()
	for _, want := range []string{"a <= 3", "BETWEEN", "AND"} {
		if !strings.Contains(s, want) {
			t.Errorf("%q missing %q", s, want)
		}
	}
	in := &In{X: &Col{"s"}, Vals: []columnar.Value{columnar.StringValue("x"), columnar.IntValue(3)}}
	if got := in.String(); !strings.Contains(got, "'x'") || !strings.Contains(got, "3") {
		t.Errorf("In rendering = %q", got)
	}
}

// TestColumns: Columns names each referenced column once, in the order
// of first use, through every node that holds a sub-expression, and
// returns nil for an expression that references none.
func TestColumns(t *testing.T) {
	e := &Logic{
		Op: Or,
		Left: &Logic{
			Op:    And,
			Left:  &Cmp{Op: Gt, Left: &Arith{Op: Add, Left: &Col{"b"}, Right: &Col{"a"}}, Right: Int(1)},
			Right: &Not{&Between{X: &Col{"c"}, Lo: &Col{"a"}, Hi: &Col{"d"}}},
		},
		Right: &Logic{
			Op:    And,
			Left:  &In{X: &Col{"e"}, Vals: []columnar.Value{columnar.IntValue(1)}},
			Right: &IsNull{X: &Col{"b"}, Negate: true},
		},
	}
	if got, want := Columns(e), []string{"b", "a", "c", "d", "e"}; !slices.Equal(got, want) {
		t.Errorf("Columns = %v, want %v", got, want)
	}
	if got := Columns(&Cmp{Op: Eq, Left: Int(1), Right: Str("x")}); got != nil {
		t.Errorf("Columns of a constant expression = %v, want nil", got)
	}
}

// TestColumnsAllocatesOnlyItsResult: Columns runs for every plan node
// and fused stage, so a call allocates no more than appending its
// result's names, one by one, to an empty slice does. Ten columns take
// a set past the size it could keep on the stack.
func TestColumnsAllocatesOnlyItsResult(t *testing.T) {
	var e Expr = Int(0)
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		e = &Arith{Op: Add, Left: e, Right: &Arith{Op: Mul, Left: &Col{name}, Right: &Col{"a"}}}
	}
	names := Columns(e)
	if len(names) != 10 {
		t.Fatalf("Columns = %v, want 10 names", names)
	}
	var sink []string
	result := testing.AllocsPerRun(100, func() {
		sink = nil
		for _, name := range names {
			sink = append(sink, name)
		}
	})
	if allocs := testing.AllocsPerRun(100, func() { sink = Columns(e) }); allocs > result {
		t.Errorf("Columns allocates %.0f times; its result alone takes %.0f", allocs, result)
	}
}
