// Package expr implements scalar expressions and predicates evaluated
// over columnar tables — the engine's expression service and the input
// language of its predicate evaluators.
//
// This file is the expression tree: node types, static typing, rendering.
// Evaluation (kernel.go) is column-at-a-time: an expression is bound once
// per operator execution to its input table's columns — vectors resolved,
// literals coerced, string comparisons and IN lists decided per dictionary
// entry — and run over 64-aligned row ranges on the parallel pool, a
// predicate into (true, null) word masks, a value into a typed vector and
// a null mask. Binding builds one closure per node; every loop over rows
// is a top-level function in rows.go that the closure calls once per
// range, because Go does not inline the calls inside such closures and a
// call per row would cost more than the row. The row-at-a-time interpreter
// this replaced lives on in reference_test.go as the kernels' oracle. The
// engine charges expression work by row count, so evaluation speed never
// moves a modeled result.
package expr

import (
	"fmt"
	"slices"
	"strings"

	"blugpu/internal/columnar"
)

// Expr is a scalar expression over one table's rows.
type Expr interface {
	// TypeOf resolves the result type against tbl's schema.
	TypeOf(tbl *columnar.Table) (columnar.Type, error)
	// String renders SQL-ish text.
	String() string
}

// --- Column reference ---

// Col references a column by name.
type Col struct{ Name string }

// TypeOf implements Expr.
func (c *Col) TypeOf(tbl *columnar.Table) (columnar.Type, error) {
	col := tbl.Column(c.Name)
	if col == nil {
		return 0, fmt.Errorf("expr: unknown column %q", c.Name)
	}
	return col.Type(), nil
}

func (c *Col) String() string { return c.Name }

// --- Literal ---

// Lit is a constant.
type Lit struct{ Val columnar.Value }

// Int returns an integer literal.
func Int(v int64) *Lit { return &Lit{columnar.IntValue(v)} }

// Float returns a float literal.
func Float(v float64) *Lit { return &Lit{columnar.FloatValue(v)} }

// Str returns a string literal.
func Str(v string) *Lit { return &Lit{columnar.StringValue(v)} }

// TypeOf implements Expr.
func (l *Lit) TypeOf(*columnar.Table) (columnar.Type, error) { return l.Val.Type, nil }

func (l *Lit) String() string {
	if l.Val.Type == columnar.String && !l.Val.Null {
		return "'" + l.Val.S + "'"
	}
	return l.Val.String()
}

// --- Arithmetic ---

// ArithOp enumerates arithmetic operators.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (op ArithOp) String() string {
	return [...]string{"+", "-", "*", "/"}[op]
}

// Arith is a binary arithmetic expression.
type Arith struct {
	Op          ArithOp
	Left, Right Expr
}

// TypeOf implements Expr.
func (a *Arith) TypeOf(tbl *columnar.Table) (columnar.Type, error) {
	lt, err := a.Left.TypeOf(tbl)
	if err != nil {
		return 0, err
	}
	rt, err := a.Right.TypeOf(tbl)
	if err != nil {
		return 0, err
	}
	return numericResult(lt, rt)
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.Left, a.Op, a.Right)
}

// --- Comparison ---

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[op]
}

// Cmp is a binary comparison; its result is a boolean encoded as an Int64
// Value (1/0) with NULL for unknown (SQL three-valued logic).
type Cmp struct {
	Op          CmpOp
	Left, Right Expr
}

// TypeOf implements Expr.
func (c *Cmp) TypeOf(tbl *columnar.Table) (columnar.Type, error) {
	return boolOver(tbl, c.Left, c.Right)
}

func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.Left, c.Op, c.Right)
}

// --- Logical ---

// LogicOp enumerates logical connectives.
type LogicOp int

// Logical connectives.
const (
	And LogicOp = iota
	Or
)

func (op LogicOp) String() string { return [...]string{"AND", "OR"}[op] }

// Logic combines boolean expressions with SQL three-valued logic.
type Logic struct {
	Op          LogicOp
	Left, Right Expr
}

// TypeOf implements Expr.
func (lg *Logic) TypeOf(tbl *columnar.Table) (columnar.Type, error) {
	return boolOver(tbl, lg.Left, lg.Right)
}

func (lg *Logic) String() string {
	return fmt.Sprintf("(%s %s %s)", lg.Left, lg.Op, lg.Right)
}

// Not negates a boolean expression (NULL stays NULL).
type Not struct{ Inner Expr }

// TypeOf implements Expr.
func (n *Not) TypeOf(tbl *columnar.Table) (columnar.Type, error) { return boolOver(tbl, n.Inner) }

func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.Inner) }

// --- Between, In, IsNull ---

// Between is `x BETWEEN lo AND hi` (inclusive).
type Between struct{ X, Lo, Hi Expr }

// TypeOf implements Expr.
func (b *Between) TypeOf(tbl *columnar.Table) (columnar.Type, error) {
	return boolOver(tbl, b.X, b.Lo, b.Hi)
}

func (b *Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.X, b.Lo, b.Hi)
}

// In is `x IN (v1, v2, ...)` over literal values.
type In struct {
	X    Expr
	Vals []columnar.Value
}

// TypeOf implements Expr.
func (in *In) TypeOf(tbl *columnar.Table) (columnar.Type, error) { return boolOver(tbl, in.X) }

func (in *In) String() string {
	parts := make([]string, len(in.Vals))
	for i, v := range in.Vals {
		if v.Type == columnar.String {
			parts[i] = "'" + v.S + "'"
		} else {
			parts[i] = v.String()
		}
	}
	return fmt.Sprintf("(%s IN (%s))", in.X, strings.Join(parts, ", "))
}

// IsNull is `x IS [NOT] NULL`.
type IsNull struct {
	X      Expr
	Negate bool
}

// TypeOf implements Expr.
func (n *IsNull) TypeOf(tbl *columnar.Table) (columnar.Type, error) { return boolOver(tbl, n.X) }

func (n *IsNull) String() string {
	if n.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", n.X)
	}
	return fmt.Sprintf("(%s IS NULL)", n.X)
}

// --- helpers ---

// boolOver is the type of a boolean node: Int64 (1/0, NULL for unknown)
// once every operand resolves.
func boolOver(tbl *columnar.Table, operands ...Expr) (columnar.Type, error) {
	for _, e := range operands {
		if _, err := e.TypeOf(tbl); err != nil {
			return 0, err
		}
	}
	return columnar.Int64, nil
}

func asFloat(v columnar.Value) float64 {
	if v.Type == columnar.Float64 {
		return v.F
	}
	return float64(v.I)
}

func numericResult(l, r columnar.Type) (columnar.Type, error) {
	if l == columnar.String || r == columnar.String {
		return 0, fmt.Errorf("arithmetic on string operand")
	}
	if l == columnar.Float64 || r == columnar.Float64 {
		return columnar.Float64, nil
	}
	return columnar.Int64, nil
}

// Columns returns the distinct column names e references, in first-
// reference order. Planners use it to compute the exact column set an
// expression needs (late materialization).
func Columns(e Expr) []string { return appendColumns(nil, e) }

// appendColumns appends to out the columns e references that out does
// not hold yet. An expression names a handful of columns, so a linear
// scan of out costs less than a set would.
func appendColumns(out []string, e Expr) []string {
	switch x := e.(type) {
	case *Col:
		if !slices.Contains(out, x.Name) {
			out = append(out, x.Name)
		}
	case *Arith:
		out = appendColumns(appendColumns(out, x.Left), x.Right)
	case *Cmp:
		out = appendColumns(appendColumns(out, x.Left), x.Right)
	case *Logic:
		out = appendColumns(appendColumns(out, x.Left), x.Right)
	case *Not:
		out = appendColumns(out, x.Inner)
	case *Between:
		out = appendColumns(appendColumns(appendColumns(out, x.X), x.Lo), x.Hi)
	case *In:
		out = appendColumns(out, x.X)
	case *IsNull:
		out = appendColumns(out, x.X)
	}
	return out
}
