package sqlparse

import (
	"fmt"
	"strings"
)

// Node is any AST node.
type Node interface{ String() string }

// Expr is any expression node.
type Expr interface {
	Node
	exprNode()
}

// Ident references a column, optionally qualified (table.col).
type Ident struct {
	Qualifier string
	Name      string
}

func (e *Ident) exprNode() {}
func (e *Ident) String() string {
	if e.Qualifier != "" {
		return e.Qualifier + "." + e.Name
	}
	return e.Name
}

// NumberLit is an integer or decimal literal.
type NumberLit struct {
	Text    string
	IsFloat bool
}

func (e *NumberLit) exprNode()      {}
func (e *NumberLit) String() string { return e.Text }

// StringLit is a quoted string literal.
type StringLit struct{ Val string }

func (e *StringLit) exprNode()      {}
func (e *StringLit) String() string { return "'" + strings.ReplaceAll(e.Val, "'", "''") + "'" }

// Binary is a binary operation: arithmetic (+ - * /), comparison
// (= <> < <= > >=), or logical (AND OR).
type Binary struct {
	Op          string
	Left, Right Expr
}

func (e *Binary) exprNode() {}
func (e *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left, e.Op, e.Right)
}

// Unary is NOT or unary minus.
type Unary struct {
	Op    string
	Inner Expr
}

func (e *Unary) exprNode()      {}
func (e *Unary) String() string { return fmt.Sprintf("(%s %s)", e.Op, e.Inner) }

// Between is x BETWEEN lo AND hi.
type Between struct{ X, Lo, Hi Expr }

func (e *Between) exprNode() {}
func (e *Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", e.X, e.Lo, e.Hi)
}

// InList is x IN (a, b, ...).
type InList struct {
	X    Expr
	Vals []Expr
}

func (e *InList) exprNode() {}
func (e *InList) String() string {
	parts := make([]string, len(e.Vals))
	for i, v := range e.Vals {
		parts[i] = v.String()
	}
	return fmt.Sprintf("(%s IN (%s))", e.X, strings.Join(parts, ", "))
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X      Expr
	Negate bool
}

func (e *IsNull) exprNode() {}
func (e *IsNull) String() string {
	if e.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", e.X)
	}
	return fmt.Sprintf("(%s IS NULL)", e.X)
}

// FuncCall is an aggregate (SUM/COUNT/AVG/MIN/MAX) or RANK() with an OVER
// clause. Star marks COUNT(*).
type FuncCall struct {
	Name string // upper-case
	Args []Expr
	Star bool
	Over *WindowSpec
}

func (e *FuncCall) exprNode() {}
func (e *FuncCall) String() string {
	arg := ""
	if e.Star {
		arg = "*"
	} else {
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = a.String()
		}
		arg = strings.Join(parts, ", ")
	}
	s := fmt.Sprintf("%s(%s)", e.Name, arg)
	if e.Over != nil {
		s += " OVER (" + e.Over.String() + ")"
	}
	return s
}

// WindowSpec is the OVER (...) clause of RANK().
type WindowSpec struct {
	PartitionBy []*Ident
	OrderBy     []OrderItem
}

func (w *WindowSpec) String() string {
	var parts []string
	if len(w.PartitionBy) > 0 {
		cols := make([]string, len(w.PartitionBy))
		for i, c := range w.PartitionBy {
			cols[i] = c.String()
		}
		parts = append(parts, "PARTITION BY "+strings.Join(cols, ", "))
	}
	if len(w.OrderBy) > 0 {
		items := make([]string, len(w.OrderBy))
		for i, o := range w.OrderBy {
			items[i] = o.String()
		}
		parts = append(parts, "ORDER BY "+strings.Join(items, ", "))
	}
	return strings.Join(parts, " ")
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (o OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String()
}

// SelectItem is one projection with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

func (s SelectItem) String() string {
	if s.Alias != "" {
		return s.Expr.String() + " AS " + s.Alias
	}
	return s.Expr.String()
}

// JoinClause is one INNER JOIN with a single equi-condition.
type JoinClause struct {
	Table    string
	LeftCol  *Ident
	RightCol *Ident
}

func (j JoinClause) String() string {
	return fmt.Sprintf("JOIN %s ON %s = %s", j.Table, j.LeftCol, j.RightCol)
}

// SelectStmt is a parsed query.
type SelectStmt struct {
	Star    bool
	Items   []SelectItem
	From    string
	Joins   []JoinClause
	Where   Expr
	GroupBy []*Ident
	Having  Expr
	OrderBy []OrderItem
	Limit   int // -1 when absent
}

func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Star {
		sb.WriteString("*")
	} else {
		items := make([]string, len(s.Items))
		for i, it := range s.Items {
			items[i] = it.String()
		}
		sb.WriteString(strings.Join(items, ", "))
	}
	sb.WriteString(" FROM " + s.From)
	for _, j := range s.Joins {
		sb.WriteString(" " + j.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		cols := make([]string, len(s.GroupBy))
		for i, c := range s.GroupBy {
			cols[i] = c.String()
		}
		sb.WriteString(" GROUP BY " + strings.Join(cols, ", "))
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		items := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			items[i] = o.String()
		}
		sb.WriteString(" ORDER BY " + strings.Join(items, ", "))
	}
	if s.Limit >= 0 {
		sb.WriteString(fmt.Sprintf(" LIMIT %d", s.Limit))
	}
	return sb.String()
}
