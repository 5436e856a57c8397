package expr

import (
	"testing"

	"blugpu/internal/columnar"
)

func TestFloatLiteralAndTypeOf(t *testing.T) {
	tbl := testTable(t)
	f := Float(2.5)
	if v, _ := evalRow(tbl, f, 0); v.F != 2.5 {
		t.Error("Float literal broken")
	}
	if tt, _ := f.TypeOf(tbl); tt != columnar.Float64 {
		t.Error("Float TypeOf broken")
	}
	// Arith TypeOf error paths.
	bad := &Arith{Op: Add, Left: &Col{"missing"}, Right: Int(1)}
	if _, err := bad.TypeOf(tbl); err == nil {
		t.Error("unknown column TypeOf should error")
	}
	bad2 := &Arith{Op: Add, Left: Int(1), Right: &Col{"missing"}}
	if _, err := bad2.TypeOf(tbl); err == nil {
		t.Error("right unknown column TypeOf should error")
	}
	strArith := &Arith{Op: Add, Left: &Col{"state"}, Right: &Col{"state"}}
	if _, err := strArith.TypeOf(tbl); err == nil {
		t.Error("string arithmetic TypeOf should error")
	}
}

func TestTypeOfPropagation(t *testing.T) {
	tbl := testTable(t)
	exprs := []Expr{
		&Cmp{Op: Eq, Left: &Col{"missing"}, Right: Int(1)},
		&Cmp{Op: Eq, Left: Int(1), Right: &Col{"missing"}},
		&Logic{Op: And, Left: &Col{"missing"}, Right: Int(1)},
		&Logic{Op: And, Left: Int(1), Right: &Col{"missing"}},
		&Not{&Col{"missing"}},
		&Between{X: &Col{"missing"}, Lo: Int(1), Hi: Int(2)},
		&Between{X: Int(1), Lo: &Col{"missing"}, Hi: Int(2)},
		&In{X: &Col{"missing"}},
		&IsNull{X: &Col{"missing"}},
	}
	for i, e := range exprs {
		if _, err := e.TypeOf(tbl); err == nil {
			t.Errorf("expr %d: TypeOf should propagate the unknown column", i)
		}
	}
	// Happy TypeOf paths all resolve to Int64 (boolean).
	good := []Expr{
		&Logic{Op: Or, Left: Int(1), Right: Int(0)},
		&Not{Int(1)},
		&Between{X: Int(1), Lo: Int(0), Hi: Int(2)},
		&In{X: Int(1), Vals: []columnar.Value{columnar.IntValue(1)}},
		&IsNull{X: Int(1)},
	}
	for i, e := range good {
		tt, err := e.TypeOf(tbl)
		if err != nil || tt != columnar.Int64 {
			t.Errorf("expr %d: TypeOf = %v, %v", i, tt, err)
		}
	}
}

func TestEvalErrorPropagation(t *testing.T) {
	tbl := testTable(t)
	exprs := []Expr{
		&Arith{Op: Add, Left: &Col{"missing"}, Right: Int(1)},
		&Arith{Op: Add, Left: Int(1), Right: &Col{"missing"}},
		&Cmp{Op: Eq, Left: &Col{"missing"}, Right: Int(1)},
		&Cmp{Op: Eq, Left: Int(1), Right: &Col{"missing"}},
		&Logic{Op: And, Left: &Col{"missing"}, Right: Int(1)},
		&Logic{Op: And, Left: Int(1), Right: &Col{"missing"}},
		&Not{&Col{"missing"}},
		&In{X: &Col{"missing"}},
		&IsNull{X: &Col{"missing"}},
	}
	for i, e := range exprs {
		if _, err := evalRow(tbl, e, 0); err == nil {
			t.Errorf("expr %d: Eval should propagate the unknown column", i)
		}
	}
}

func TestFloatArithmeticBranches(t *testing.T) {
	tbl := testTable(t)
	// Float +, -, /, and division by zero.
	if v, _ := evalRow(tbl, &Arith{Op: Add, Left: Float(1.5), Right: Float(2)}, 0); v.F != 3.5 {
		t.Error("float add")
	}
	if v, _ := evalRow(tbl, &Arith{Op: Sub, Left: Float(1.5), Right: Int(1)}, 0); v.F != 0.5 {
		t.Error("mixed sub")
	}
	if v, _ := evalRow(tbl, &Arith{Op: Div, Left: Float(5), Right: Float(2)}, 0); v.F != 2.5 {
		t.Error("float div")
	}
	if v, _ := evalRow(tbl, &Arith{Op: Div, Left: Float(5), Right: Float(0)}, 0); !v.Null {
		t.Error("float div by zero should be NULL")
	}
	// Int sub/mul.
	if v, _ := evalRow(tbl, &Arith{Op: Sub, Left: Int(7), Right: Int(3)}, 0); v.I != 4 {
		t.Error("int sub")
	}
	if v, _ := evalRow(tbl, &Arith{Op: Mul, Left: Int(7), Right: Int(3)}, 0); v.I != 21 {
		t.Error("int mul")
	}
}

func TestCmpOperatorsComplete(t *testing.T) {
	tbl := testTable(t)
	cases := []struct {
		op   CmpOp
		a, b int64
		want int64
	}{
		{Ne, 1, 2, 1}, {Ne, 2, 2, 0},
		{Lt, 1, 2, 1}, {Lt, 2, 2, 0},
		{Le, 2, 2, 1}, {Le, 3, 2, 0},
		{Ge, 2, 2, 1}, {Ge, 1, 2, 0},
	}
	for _, c := range cases {
		v, err := evalRow(tbl, &Cmp{Op: c.op, Left: Int(c.a), Right: Int(c.b)}, 0)
		if err != nil || v.I != c.want {
			t.Errorf("%d %v %d = %v, want %d", c.a, c.op, c.b, v, c.want)
		}
	}
}

func TestTruthOfFloats(t *testing.T) {
	tbl := testTable(t)
	// Float truthiness through Logic.
	v, _ := evalRow(tbl, &Logic{Op: And, Left: Float(1.5), Right: Float(2)}, 0)
	if v.I != 1 {
		t.Error("non-zero floats should be true")
	}
	v, _ = evalRow(tbl, &Logic{Op: Or, Left: Float(0), Right: Float(0)}, 0)
	if v.I != 0 {
		t.Error("zero floats should be false")
	}
}

func TestInWithNullAndMixedTypes(t *testing.T) {
	tbl := testTable(t)
	// NULL input stays NULL.
	in := &In{X: &Col{"qty"}, Vals: []columnar.Value{columnar.IntValue(0)}}
	if v, _ := evalRow(tbl, in, 2); !v.Null {
		t.Error("NULL IN (...) should be NULL")
	}
	// Mixed numeric coercion inside IN.
	mixed := &In{X: &Col{"price"}, Vals: []columnar.Value{columnar.IntValue(4)}}
	if v, _ := evalRow(tbl, mixed, 3); v.I != 1 {
		t.Error("4.0 IN (4) should coerce and match")
	}
	// Incomparable values are skipped, not errors.
	weird := &In{X: &Col{"qty"}, Vals: []columnar.Value{columnar.StringValue("x"), columnar.IntValue(10)}}
	if v, _ := evalRow(tbl, weird, 0); v.I != 1 {
		t.Error("comparable value later in the list should still match")
	}
}

func TestStringersComplete(t *testing.T) {
	exprs := []Expr{
		&Logic{Op: Or, Left: Int(1), Right: Int(0)},
		&Not{Int(1)},
		&IsNull{X: &Col{"a"}},
		&IsNull{X: &Col{"a"}, Negate: true},
		&Arith{Op: Div, Left: &Col{"a"}, Right: Int(2)},
		Float(1.5),
	}
	for _, e := range exprs {
		if e.String() == "" {
			t.Errorf("%T renders empty", e)
		}
	}
	if (&Cmp{Op: Ne, Left: Int(1), Right: Int(2)}).String() != "(1 <> 2)" {
		t.Error("Ne rendering wrong")
	}
}

func TestEvalPredicateErrorsInLoop(t *testing.T) {
	tbl := testTable(t)
	// Type-checks pass but evaluation fails mid-loop: division produces
	// NULL, never errors, so use a predicate whose evaluation errors via
	// string arithmetic that TypeOf can't catch... TypeOf does catch it,
	// so verify TypeOf gating instead.
	if _, err := EvalPredicate(tbl, &Arith{Op: Add, Left: &Col{"state"}, Right: Int(1)}, 1); err == nil {
		t.Error("predicate with string arithmetic should be rejected")
	}
}
