// Package plan lowers parsed SQL into the engine's logical plan: a
// left-deep star-join pipeline of Scan, Join, Filter, Derive, Aggregate,
// Window, Project, Sort and Limit nodes. The planner rewrites AVG into
// SUM/COUNT finalization (done by the engine), hoists aggregate arguments
// into derived columns, resolves HAVING and ORDER BY against select
// aliases, and validates that non-aggregated select items are grouping
// keys. PlaceFilters then moves each WHERE conjunct below the joins, onto
// the one table it names.
package plan

import (
	"fmt"
	"strconv"
	"strings"

	"blugpu/internal/columnar"
	"blugpu/internal/expr"
	"blugpu/internal/sqlparse"
)

// AggFunc enumerates the planner's aggregate functions (AVG exists here;
// the engine decomposes it into SUM and COUNT around the kernels).
type AggFunc int

// Aggregate functions.
const (
	AggSum AggFunc = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

func (f AggFunc) String() string {
	return [...]string{"SUM", "COUNT", "MIN", "MAX", "AVG"}[f]
}

// Node is one logical operator.
type Node interface{ String() string }

// Scan reads a base table. Needed, when non-nil, restricts the scan to
// the referenced columns (late materialization).
type Scan struct {
	Table  string
	Needed []string
}

func (n *Scan) String() string { return "scan(" + n.Table + ")" }

// Join is one star-join step: join the intermediate result with a base
// table on an equi-condition.
type Join struct {
	Left     Node
	Table    string
	LeftCol  string // column in the intermediate result
	RightCol string // column in the joined table
	// Pred, when set, keeps only the joined table's rows where it holds:
	// a WHERE conjunct over that table alone (see PlaceFilters).
	Pred expr.Expr
	// Needed restricts the materialized output columns (nil = all).
	Needed []string
}

func (n *Join) String() string {
	if n.Pred != nil {
		return fmt.Sprintf("join(%s, %s on %s=%s where %s)", n.Left, n.Table, n.LeftCol, n.RightCol, n.Pred)
	}
	return fmt.Sprintf("join(%s, %s on %s=%s)", n.Left, n.Table, n.LeftCol, n.RightCol)
}

// Filter keeps rows where Pred is true.
type Filter struct {
	Input Node
	Pred  expr.Expr
}

func (n *Filter) String() string { return fmt.Sprintf("filter(%s, %s)", n.Input, n.Pred) }

// DerivedCol is a named computed column.
type DerivedCol struct {
	Name string
	Expr expr.Expr
}

// Derive appends computed columns to the intermediate result.
type Derive struct {
	Input Node
	Cols  []DerivedCol
}

func (n *Derive) String() string {
	parts := make([]string, len(n.Cols))
	for i, c := range n.Cols {
		parts[i] = c.Name + "=" + c.Expr.String()
	}
	return fmt.Sprintf("derive(%s, %s)", n.Input, strings.Join(parts, ", "))
}

// AggItem is one aggregate computed by an Aggregate node.
type AggItem struct {
	Func   AggFunc
	Column string // empty for COUNT(*)
	Out    string // output column name
}

// Aggregate groups by Keys and computes Aggs — the node the hybrid
// CPU/GPU group-by chain executes.
type Aggregate struct {
	Input Node
	Keys  []string
	Aggs  []AggItem
	// TopK, when > 0, is the k of an ORDER BY ... LIMIT k the group-by's
	// output feeds through nothing but a Project of bare columns, and
	// TopKeys that ORDER BY over the group-by's own output names: only
	// the first k groups of that order can reach the result.
	TopK    int
	TopKeys []SortKey
}

func (n *Aggregate) String() string {
	aggs := make([]string, len(n.Aggs))
	for i, a := range n.Aggs {
		col := a.Column
		if col == "" {
			col = "*"
		}
		aggs[i] = fmt.Sprintf("%s(%s) as %s", a.Func, col, a.Out)
	}
	return fmt.Sprintf("aggregate(%s, keys=[%s], aggs=[%s])",
		n.Input, strings.Join(n.Keys, ","), strings.Join(aggs, ", "))
}

// SortKey orders by one column.
type SortKey struct {
	Column string
	Desc   bool
}

func (k SortKey) String() string {
	if k.Desc {
		return k.Column + " desc"
	}
	return k.Column
}

// Window computes RANK() OVER (PARTITION BY ... ORDER BY ...) into a new
// column — the OLAP construct that drives SORT in the ROLAP workload.
type Window struct {
	Input       Node
	Out         string
	PartitionBy []string
	OrderBy     []SortKey
}

func (n *Window) String() string {
	return fmt.Sprintf("window(%s, rank over part=[%s] order=[%s] as %s)",
		n.Input, joinKeys(n.PartitionBy), joinSort(n.OrderBy), n.Out)
}

// Project computes the final output columns, in order.
type Project struct {
	Input Node
	Cols  []DerivedCol
}

func (n *Project) String() string {
	parts := make([]string, len(n.Cols))
	for i, c := range n.Cols {
		parts[i] = c.Name + "=" + c.Expr.String()
	}
	return fmt.Sprintf("project(%s, %s)", n.Input, strings.Join(parts, ", "))
}

// Sort orders the result — the hybrid CPU/GPU sort executes it. K, when
// > 0, is the k of a LIMIT k directly above: only the first k rows of
// the order are kept.
type Sort struct {
	Input Node
	Keys  []SortKey
	K     int
}

func (n *Sort) String() string { return fmt.Sprintf("sort(%s, [%s])", n.Input, joinSort(n.Keys)) }

// Limit keeps the first N rows.
type Limit struct {
	Input Node
	N     int
}

func (n *Limit) String() string { return fmt.Sprintf("limit(%s, %d)", n.Input, n.N) }

func joinKeys(ks []string) string { return strings.Join(ks, ",") }

func joinSort(ks []SortKey) string {
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = k.String()
	}
	return strings.Join(parts, ",")
}

// Plan is a lowered query.
type Plan struct {
	Root Node
	// Output names the result columns in order (empty for SELECT *).
	Output []string
}

// Build lowers a parsed statement.
func Build(stmt *sqlparse.SelectStmt) (*Plan, error) {
	b := &builder{}
	return b.build(stmt)
}

type builder struct {
	derived int
	aggN    int
	rankN   int
}

func (b *builder) build(stmt *sqlparse.SelectStmt) (*Plan, error) {
	var cur Node = &Scan{Table: stmt.From}
	for _, j := range stmt.Joins {
		cur = &Join{Left: cur, Table: j.Table, LeftCol: j.LeftCol.Name, RightCol: j.RightCol.Name}
	}
	if stmt.Where != nil {
		pred, err := LowerExpr(stmt.Where)
		if err != nil {
			return nil, err
		}
		cur = &Filter{Input: cur, Pred: pred}
	}

	// Collect aggregates from the select list (and HAVING).
	var aggCalls []*sqlparse.FuncCall
	collectAggs(&aggCalls, stmt.Having)
	for _, item := range stmt.Items {
		collectAggs(&aggCalls, item.Expr)
	}
	hasAggs := len(aggCalls) > 0
	grouped := len(stmt.GroupBy) > 0 || hasAggs

	outNames := map[string]string{} // rendering of agg call -> output column
	var windowItems []struct {
		fc  *sqlparse.FuncCall
		out string
	}

	if grouped {
		if stmt.Star {
			return nil, fmt.Errorf("plan: SELECT * cannot be combined with GROUP BY/aggregates")
		}
		keys := make([]string, len(stmt.GroupBy))
		for i, k := range stmt.GroupBy {
			keys[i] = k.Name
		}
		var derive []DerivedCol
		var aggs []AggItem
		for _, fc := range aggCalls {
			render := fc.String()
			if _, done := outNames[render]; done {
				continue
			}
			fn, err := aggFunc(fc.Name)
			if err != nil {
				return nil, err
			}
			item := AggItem{Func: fn}
			if fc.Star {
				if fn != AggCount {
					return nil, fmt.Errorf("plan: %s(*) is not valid", fc.Name)
				}
			} else {
				if len(fc.Args) != 1 {
					return nil, fmt.Errorf("plan: %s takes exactly one argument", fc.Name)
				}
				switch arg := fc.Args[0].(type) {
				case *sqlparse.Ident:
					item.Column = arg.Name
				default:
					// Hoist the expression into a derived column so the
					// evaluator chain's LCOV can load it.
					e, err := LowerExpr(fc.Args[0])
					if err != nil {
						return nil, err
					}
					name := fmt.Sprintf("_x%d", b.derived)
					b.derived++
					derive = append(derive, DerivedCol{Name: name, Expr: e})
					item.Column = name
				}
			}
			item.Out = b.aggOutName(fc, stmt.Items)
			outNames[render] = item.Out
			aggs = append(aggs, item)
		}
		if len(derive) > 0 {
			cur = &Derive{Input: cur, Cols: derive}
		}
		if len(keys) == 0 {
			return nil, fmt.Errorf("plan: aggregates without GROUP BY are not supported; add a grouping column")
		}
		cur = &Aggregate{Input: cur, Keys: keys, Aggs: aggs}

		// Validate non-aggregate select items against grouping keys, and
		// register RANK() windows.
		keySet := map[string]bool{}
		for _, k := range keys {
			keySet[k] = true
		}
		for i := range stmt.Items {
			item := &stmt.Items[i]
			if fc, ok := item.Expr.(*sqlparse.FuncCall); ok && fc.Name == "RANK" {
				out := item.Alias
				if out == "" {
					out = fmt.Sprintf("_rank%d", b.rankN)
					b.rankN++
				}
				windowItems = append(windowItems, struct {
					fc  *sqlparse.FuncCall
					out string
				}{fc, out})
				outNames[fc.String()] = out
				continue
			}
			if err := validateGroupedExpr(item.Expr, keySet, outNames); err != nil {
				return nil, err
			}
		}
	} else {
		// Ungrouped: register RANK() windows over the raw rows.
		for i := range stmt.Items {
			item := &stmt.Items[i]
			if fc, ok := item.Expr.(*sqlparse.FuncCall); ok && fc.Name == "RANK" {
				out := item.Alias
				if out == "" {
					out = fmt.Sprintf("_rank%d", b.rankN)
					b.rankN++
				}
				windowItems = append(windowItems, struct {
					fc  *sqlparse.FuncCall
					out string
				}{fc, out})
				outNames[fc.String()] = out
			}
		}
	}

	for _, w := range windowItems {
		var parts []string
		for _, p := range w.fc.Over.PartitionBy {
			parts = append(parts, p.Name)
		}
		var order []SortKey
		for _, o := range w.fc.Over.OrderBy {
			col, err := orderColumn(o.Expr, outNames)
			if err != nil {
				return nil, err
			}
			order = append(order, SortKey{Column: col, Desc: o.Desc})
		}
		cur = &Window{Input: cur, Out: w.out, PartitionBy: parts, OrderBy: order}
	}

	if stmt.Having != nil {
		if !grouped {
			return nil, fmt.Errorf("plan: HAVING requires GROUP BY")
		}
		rewritten := rewriteAggs(stmt.Having, outNames)
		pred, err := LowerExpr(rewritten)
		if err != nil {
			return nil, err
		}
		cur = &Filter{Input: cur, Pred: pred}
	}

	var output []string
	if !stmt.Star {
		cols := make([]DerivedCol, len(stmt.Items))
		for i, item := range stmt.Items {
			rewritten := rewriteAggs(item.Expr, outNames)
			e, err := LowerExpr(rewritten)
			if err != nil {
				return nil, err
			}
			name := item.Alias
			if name == "" {
				if id, ok := rewritten.(*sqlparse.Ident); ok {
					name = id.Name
				} else {
					name = fmt.Sprintf("_c%d", i)
				}
			}
			cols[i] = DerivedCol{Name: name, Expr: e}
			output = append(output, name)
		}
		cur = &Project{Input: cur, Cols: cols}
	}

	if len(stmt.OrderBy) > 0 {
		var keys []SortKey
		for _, o := range stmt.OrderBy {
			col, err := orderColumn(o.Expr, outNames)
			if err != nil {
				return nil, err
			}
			keys = append(keys, SortKey{Column: col, Desc: o.Desc})
		}
		cur = &Sort{Input: cur, Keys: keys}
	}
	if stmt.Limit >= 0 {
		if s, ok := cur.(*Sort); ok && stmt.Limit > 0 {
			s.K = stmt.Limit
			pushTopK(s)
		}
		cur = &Limit{Input: cur, N: stmt.Limit}
	}
	if !stmt.Star {
		// Late materialization: annotate scans and joins with the
		// columns the query actually touches.
		prune(cur)
	}
	return &Plan{Root: cur, Output: output}, nil
}

// pushTopK hands a top-k Sort's k and keys to the Aggregate below it when
// every sort key resolves, through a Project of bare columns, to a group
// key or an aggregate output. Anything else between them — a HAVING
// Filter, a Window, an expression in the select list — keeps the k on the
// Sort alone.
func pushTopK(s *Sort) {
	proj, ok := s.Input.(*Project)
	if !ok {
		return
	}
	agg, ok := proj.Input.(*Aggregate)
	if !ok {
		return
	}
	source := make(map[string]string, len(proj.Cols))
	for _, c := range proj.Cols {
		ref, ok := c.Expr.(*expr.Col)
		if !ok {
			return
		}
		source[c.Name] = ref.Name
	}
	// A grouped select list names only group keys and aggregate outputs
	// (validateGroupedExpr), so a bare column over the Aggregate is one.
	keys := make([]SortKey, len(s.Keys))
	for i, k := range s.Keys {
		src, ok := source[k.Column]
		if !ok {
			return
		}
		keys[i] = SortKey{Column: src, Desc: k.Desc}
	}
	agg.TopK, agg.TopKeys = s.K, keys
}

// aggOutName picks the aggregate's output column: the select alias when
// the item is exactly this aggregate, else a generated name.
func (b *builder) aggOutName(fc *sqlparse.FuncCall, items []sqlparse.SelectItem) string {
	render := fc.String()
	for _, item := range items {
		if item.Alias != "" {
			if f, ok := item.Expr.(*sqlparse.FuncCall); ok && f.String() == render {
				return item.Alias
			}
		}
	}
	name := fmt.Sprintf("_agg%d", b.aggN)
	b.aggN++
	return name
}

func aggFunc(name string) (AggFunc, error) {
	switch name {
	case "SUM":
		return AggSum, nil
	case "COUNT":
		return AggCount, nil
	case "MIN":
		return AggMin, nil
	case "MAX":
		return AggMax, nil
	case "AVG":
		return AggAvg, nil
	}
	return 0, fmt.Errorf("plan: unknown aggregate %q", name)
}

// collectAggs gathers aggregate calls (not RANK) from an expression tree.
func collectAggs(out *[]*sqlparse.FuncCall, e sqlparse.Expr) {
	switch x := e.(type) {
	case nil:
	case *sqlparse.FuncCall:
		if x.Name == "RANK" {
			return
		}
		*out = append(*out, x)
	case *sqlparse.Binary:
		collectAggs(out, x.Left)
		collectAggs(out, x.Right)
	case *sqlparse.Unary:
		collectAggs(out, x.Inner)
	case *sqlparse.Between:
		collectAggs(out, x.X)
		collectAggs(out, x.Lo)
		collectAggs(out, x.Hi)
	case *sqlparse.InList:
		collectAggs(out, x.X)
	case *sqlparse.IsNull:
		collectAggs(out, x.X)
	}
}

// rewriteAggs replaces aggregate calls with references to their output
// columns.
func rewriteAggs(e sqlparse.Expr, names map[string]string) sqlparse.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *sqlparse.FuncCall:
		if out, ok := names[x.String()]; ok {
			return &sqlparse.Ident{Name: out}
		}
		return x
	case *sqlparse.Binary:
		return &sqlparse.Binary{Op: x.Op, Left: rewriteAggs(x.Left, names), Right: rewriteAggs(x.Right, names)}
	case *sqlparse.Unary:
		return &sqlparse.Unary{Op: x.Op, Inner: rewriteAggs(x.Inner, names)}
	case *sqlparse.Between:
		return &sqlparse.Between{X: rewriteAggs(x.X, names), Lo: rewriteAggs(x.Lo, names), Hi: rewriteAggs(x.Hi, names)}
	case *sqlparse.InList:
		return &sqlparse.InList{X: rewriteAggs(x.X, names), Vals: x.Vals}
	case *sqlparse.IsNull:
		return &sqlparse.IsNull{X: rewriteAggs(x.X, names), Negate: x.Negate}
	default:
		return e
	}
}

// validateGroupedExpr checks that a non-window select item only uses
// grouping keys, aggregate outputs and literals.
func validateGroupedExpr(e sqlparse.Expr, keys map[string]bool, aggs map[string]string) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *sqlparse.Ident:
		if !keys[x.Name] {
			return fmt.Errorf("plan: column %q must appear in GROUP BY or an aggregate", x.Name)
		}
		return nil
	case *sqlparse.NumberLit, *sqlparse.StringLit:
		return nil
	case *sqlparse.FuncCall:
		if _, ok := aggs[x.String()]; ok {
			return nil
		}
		return fmt.Errorf("plan: unresolved function %s in grouped query", x.Name)
	case *sqlparse.Binary:
		if err := validateGroupedExpr(x.Left, keys, aggs); err != nil {
			return err
		}
		return validateGroupedExpr(x.Right, keys, aggs)
	case *sqlparse.Unary:
		return validateGroupedExpr(x.Inner, keys, aggs)
	default:
		return fmt.Errorf("plan: unsupported select expression %s in grouped query", e)
	}
}

// orderColumn resolves an ORDER BY expression to an output column name.
func orderColumn(e sqlparse.Expr, aggs map[string]string) (string, error) {
	switch x := e.(type) {
	case *sqlparse.Ident:
		return x.Name, nil
	case *sqlparse.FuncCall:
		if out, ok := aggs[x.String()]; ok {
			return out, nil
		}
		return "", fmt.Errorf("plan: ORDER BY aggregate %s must also appear in the select list", x.Name)
	default:
		return "", fmt.Errorf("plan: ORDER BY supports columns and aliases, not %s", e)
	}
}

// LowerExpr converts a parsed expression to an executable one. Aggregate
// calls must have been rewritten away first.
func LowerExpr(e sqlparse.Expr) (expr.Expr, error) {
	switch x := e.(type) {
	case *sqlparse.Ident:
		return &expr.Col{Name: x.Name}, nil
	case *sqlparse.NumberLit:
		if x.IsFloat {
			f, err := strconv.ParseFloat(x.Text, 64)
			if err != nil {
				return nil, fmt.Errorf("plan: bad number %q", x.Text)
			}
			return expr.Float(f), nil
		}
		v, err := strconv.ParseInt(x.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("plan: bad number %q", x.Text)
		}
		return expr.Int(v), nil
	case *sqlparse.StringLit:
		return expr.Str(x.Val), nil
	case *sqlparse.Binary:
		l, err := LowerExpr(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := LowerExpr(x.Right)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "+":
			return &expr.Arith{Op: expr.Add, Left: l, Right: r}, nil
		case "-":
			return &expr.Arith{Op: expr.Sub, Left: l, Right: r}, nil
		case "*":
			return &expr.Arith{Op: expr.Mul, Left: l, Right: r}, nil
		case "/":
			return &expr.Arith{Op: expr.Div, Left: l, Right: r}, nil
		case "=":
			return &expr.Cmp{Op: expr.Eq, Left: l, Right: r}, nil
		case "<>":
			return &expr.Cmp{Op: expr.Ne, Left: l, Right: r}, nil
		case "<":
			return &expr.Cmp{Op: expr.Lt, Left: l, Right: r}, nil
		case "<=":
			return &expr.Cmp{Op: expr.Le, Left: l, Right: r}, nil
		case ">":
			return &expr.Cmp{Op: expr.Gt, Left: l, Right: r}, nil
		case ">=":
			return &expr.Cmp{Op: expr.Ge, Left: l, Right: r}, nil
		case "AND":
			return &expr.Logic{Op: expr.And, Left: l, Right: r}, nil
		case "OR":
			return &expr.Logic{Op: expr.Or, Left: l, Right: r}, nil
		}
		return nil, fmt.Errorf("plan: unknown operator %q", x.Op)
	case *sqlparse.Unary:
		inner, err := LowerExpr(x.Inner)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			return &expr.Not{Inner: inner}, nil
		case "-":
			if lit, ok := inner.(*expr.Lit); ok {
				v := lit.Val
				switch v.Type {
				case columnar.Int64:
					return expr.Int(-v.I), nil
				case columnar.Float64:
					return expr.Float(-v.F), nil
				}
			}
			return &expr.Arith{Op: expr.Sub, Left: expr.Int(0), Right: inner}, nil
		}
		return nil, fmt.Errorf("plan: unknown unary operator %q", x.Op)
	case *sqlparse.Between:
		xx, err := LowerExpr(x.X)
		if err != nil {
			return nil, err
		}
		lo, err := LowerExpr(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := LowerExpr(x.Hi)
		if err != nil {
			return nil, err
		}
		return &expr.Between{X: xx, Lo: lo, Hi: hi}, nil
	case *sqlparse.InList:
		xx, err := LowerExpr(x.X)
		if err != nil {
			return nil, err
		}
		vals := make([]columnar.Value, len(x.Vals))
		for i, v := range x.Vals {
			lowered, err := LowerExpr(v)
			if err != nil {
				return nil, err
			}
			lit, ok := lowered.(*expr.Lit)
			if !ok {
				return nil, fmt.Errorf("plan: IN list values must be literals")
			}
			vals[i] = lit.Val
		}
		return &expr.In{X: xx, Vals: vals}, nil
	case *sqlparse.IsNull:
		xx, err := LowerExpr(x.X)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{X: xx, Negate: x.Negate}, nil
	case *sqlparse.FuncCall:
		return nil, fmt.Errorf("plan: aggregate %s outside GROUP BY context", x.Name)
	}
	return nil, fmt.Errorf("plan: unsupported expression %T", e)
}
