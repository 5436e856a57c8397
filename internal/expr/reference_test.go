package expr

// The boxed row-at-a-time interpreter the typed kernels replaced, kept
// verbatim as their test-only oracle: Eval per node, coerce, truth, and
// the sequential predicate scan and column builder the engine ran on it.
// Product code has no per-row entry point; differential_test.go holds the
// kernels to these answers.

import (
	"fmt"

	"blugpu/internal/columnar"
)

// refExpr is the per-row method the Expr interface used to carry.
type refExpr interface {
	Eval(tbl *columnar.Table, i int) (columnar.Value, error)
}

func refEval(e Expr, tbl *columnar.Table, i int) (columnar.Value, error) {
	return e.(refExpr).Eval(tbl, i)
}

// Eval implements refExpr.
func (c *Col) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	col := tbl.Column(c.Name)
	if col == nil {
		return columnar.Value{}, fmt.Errorf("expr: unknown column %q", c.Name)
	}
	return col.Value(i), nil
}

// Eval implements refExpr.
func (l *Lit) Eval(*columnar.Table, int) (columnar.Value, error) { return l.Val, nil }

// Eval implements refExpr.
func (a *Arith) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	l, err := refEval(a.Left, tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	r, err := refEval(a.Right, tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	t, err := numericResult(l.Type, r.Type)
	if err != nil {
		return columnar.Value{}, fmt.Errorf("expr: %s: %w", a, err)
	}
	if l.Null || r.Null {
		return columnar.NullValue(t), nil
	}
	if t == columnar.Float64 {
		lf, rf := asFloat(l), asFloat(r)
		switch a.Op {
		case Add:
			return columnar.FloatValue(lf + rf), nil
		case Sub:
			return columnar.FloatValue(lf - rf), nil
		case Mul:
			return columnar.FloatValue(lf * rf), nil
		case Div:
			if rf == 0 {
				return columnar.NullValue(t), nil
			}
			return columnar.FloatValue(lf / rf), nil
		}
	}
	switch a.Op {
	case Add:
		return columnar.IntValue(l.I + r.I), nil
	case Sub:
		return columnar.IntValue(l.I - r.I), nil
	case Mul:
		return columnar.IntValue(l.I * r.I), nil
	case Div:
		if r.I == 0 {
			return columnar.NullValue(t), nil
		}
		return columnar.IntValue(l.I / r.I), nil
	}
	return columnar.Value{}, fmt.Errorf("expr: unknown arith op %d", a.Op)
}

// Eval implements refExpr.
func (c *Cmp) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	l, err := refEval(c.Left, tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	r, err := refEval(c.Right, tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	if l.Null || r.Null {
		return columnar.NullValue(columnar.Int64), nil
	}
	l, r, err = coerce(l, r)
	if err != nil {
		return columnar.Value{}, fmt.Errorf("expr: %s: %w", c, err)
	}
	cv := l.Compare(r)
	var ok bool
	switch c.Op {
	case Eq:
		ok = cv == 0
	case Ne:
		ok = cv != 0
	case Lt:
		ok = cv < 0
	case Le:
		ok = cv <= 0
	case Gt:
		ok = cv > 0
	case Ge:
		ok = cv >= 0
	}
	return boolValue(ok), nil
}

// Eval implements refExpr.
func (lg *Logic) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	l, err := refEval(lg.Left, tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	r, err := refEval(lg.Right, tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	lt, rt := truth(l), truth(r)
	switch lg.Op {
	case And:
		switch {
		case lt == tFalse || rt == tFalse:
			return boolValue(false), nil
		case lt == tTrue && rt == tTrue:
			return boolValue(true), nil
		default:
			return columnar.NullValue(columnar.Int64), nil
		}
	case Or:
		switch {
		case lt == tTrue || rt == tTrue:
			return boolValue(true), nil
		case lt == tFalse && rt == tFalse:
			return boolValue(false), nil
		default:
			return columnar.NullValue(columnar.Int64), nil
		}
	}
	return columnar.Value{}, fmt.Errorf("expr: unknown logic op %d", lg.Op)
}

// Eval implements refExpr.
func (n *Not) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	v, err := refEval(n.Inner, tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	switch truth(v) {
	case tTrue:
		return boolValue(false), nil
	case tFalse:
		return boolValue(true), nil
	default:
		return columnar.NullValue(columnar.Int64), nil
	}
}

// Eval implements refExpr.
func (b *Between) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	ge := &Cmp{Op: Ge, Left: b.X, Right: b.Lo}
	le := &Cmp{Op: Le, Left: b.X, Right: b.Hi}
	return (&Logic{Op: And, Left: ge, Right: le}).Eval(tbl, i)
}

// Eval implements refExpr.
func (in *In) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	v, err := refEval(in.X, tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	if v.Null {
		return columnar.NullValue(columnar.Int64), nil
	}
	for _, c := range in.Vals {
		cv, vv, err := coerce(c, v)
		if err != nil {
			continue
		}
		if vv.Equal(cv) {
			return boolValue(true), nil
		}
	}
	return boolValue(false), nil
}

// Eval implements refExpr.
func (n *IsNull) Eval(tbl *columnar.Table, i int) (columnar.Value, error) {
	v, err := refEval(n.X, tbl, i)
	if err != nil {
		return columnar.Value{}, err
	}
	return boolValue(v.Null != n.Negate), nil
}

type tri int

const (
	tFalse tri = iota
	tTrue
	tNull
)

func truth(v columnar.Value) tri {
	if v.Null {
		return tNull
	}
	switch v.Type {
	case columnar.Int64:
		if v.I != 0 {
			return tTrue
		}
	case columnar.Float64:
		if v.F != 0 {
			return tTrue
		}
	}
	return tFalse
}

func boolValue(b bool) columnar.Value {
	if b {
		return columnar.IntValue(1)
	}
	return columnar.IntValue(0)
}

// coerce makes two values comparable, widening int to float when mixed.
func coerce(l, r columnar.Value) (columnar.Value, columnar.Value, error) {
	if l.Type == r.Type {
		return l, r, nil
	}
	if l.Type == columnar.String || r.Type == columnar.String {
		return l, r, fmt.Errorf("cannot compare %v with %v", l.Type, r.Type)
	}
	return columnar.FloatValue(asFloat(l)), columnar.FloatValue(asFloat(r)), nil
}

// refEvalPredicate is the interpreter's sequential predicate scan: the
// reference for EvalPredicate.
func refEvalPredicate(tbl *columnar.Table, pred Expr) (*columnar.Bitmap, error) {
	if _, err := pred.TypeOf(tbl); err != nil {
		return nil, err
	}
	bm := columnar.NewBitmap(tbl.Rows())
	for i := 0; i < tbl.Rows(); i++ {
		v, err := refEval(pred, tbl, i)
		if err != nil {
			return nil, err
		}
		if truth(v) == tTrue {
			bm.Set(i)
		}
	}
	return bm, nil
}

// refEvalColumn is the engine's old evalToColumn: every row boxed, then a
// sequential builder pass. The reference for EvalColumn.
func refEvalColumn(tbl *columnar.Table, name string, ex Expr) (columnar.Column, error) {
	t, err := ex.TypeOf(tbl)
	if err != nil {
		return nil, err
	}
	vals := make([]columnar.Value, tbl.Rows())
	for i := range vals {
		if vals[i], err = refEval(ex, tbl, i); err != nil {
			return nil, err
		}
	}
	return columnar.ColumnFromValues(name, t, vals)
}
