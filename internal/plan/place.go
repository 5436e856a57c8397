package plan

import "blugpu/internal/expr"

// PlaceFilters moves the WHERE of a star join below the joins, conjunct by
// conjunct: one whose columns all belong to the chain's bottom scan becomes
// a filter directly over that scan, one whose columns all belong to one
// joined table becomes that join's predicate, and every other conjunct —
// one naming no column, columns of two tables, or a column no table of the
// chain owns — stays where it was. Conjunct order is kept at every target.
// has reports whether a table has a column; the engine answers it from its
// catalog. Nothing crosses an Aggregate or a Window: the one filter that
// moves is the one directly over the top join. A single-table WHERE and a
// SELECT * plan are left as they are. The plan's columns are pruned again
// afterwards, so a join predicate's columns are not gathered into the
// join's output.
func PlaceFilters(p *Plan, has func(table, column string) bool) {
	if len(p.Output) == 0 {
		return // SELECT *: every column is the output
	}
	var where *Filter
	var ref *Node
	for r := &p.Root; r != nil; r = inputRef(*r) {
		if f, ok := (*r).(*Filter); ok {
			if _, ok := f.Input.(*Join); ok {
				where, ref = f, r
				break
			}
		}
	}
	if where == nil {
		return
	}
	// The chain, top join first, and its bottom scan.
	var joins []*Join
	cur := where.Input
	for j, ok := cur.(*Join); ok; j, ok = cur.(*Join) {
		joins = append(joins, j)
		cur = j.Left
	}
	scan, ok := cur.(*Scan)
	if !ok {
		return
	}
	// Target 0 is the scan, target i the i-th join from the bottom. A
	// column belongs to the one target whose table has it; a name two
	// targets share belongs to neither.
	tables := []string{scan.Table}
	for i := len(joins) - 1; i >= 0; i-- {
		tables = append(tables, joins[i].Table)
	}
	owner := func(col string) int {
		at := -1
		for t, tbl := range tables {
			if has(tbl, col) {
				if at >= 0 {
					return -1
				}
				at = t
			}
		}
		return at
	}
	target := func(c expr.Expr) int {
		cols := expr.Columns(c)
		if len(cols) == 0 {
			return -1
		}
		at := owner(cols[0])
		for _, col := range cols[1:] {
			if owner(col) != at {
				return -1
			}
		}
		return at
	}
	all := conjuncts(where.Pred)
	placed := make([][]expr.Expr, len(tables))
	var stays []expr.Expr
	for _, c := range all {
		if t := target(c); t >= 0 {
			placed[t] = append(placed[t], c)
		} else {
			stays = append(stays, c)
		}
	}
	if len(stays) == len(all) {
		return
	}
	if len(stays) == 0 {
		*ref = where.Input
	} else {
		where.Pred = andAll(stays)
	}
	if len(placed[0]) > 0 {
		bottom := joins[len(joins)-1]
		bottom.Left = &Filter{Input: scan, Pred: andAll(placed[0])}
	}
	for t := 1; t < len(tables); t++ {
		if len(placed[t]) > 0 {
			joins[len(joins)-t].Pred = andAll(placed[t])
		}
	}
	prune(p.Root)
}

// conjuncts splits a predicate into its AND-conjuncts, in order.
func conjuncts(e expr.Expr) []expr.Expr {
	if l, ok := e.(*expr.Logic); ok && l.Op == expr.And {
		return append(conjuncts(l.Left), conjuncts(l.Right)...)
	}
	return []expr.Expr{e}
}

// andAll joins conjuncts back into one predicate, left to right.
func andAll(cs []expr.Expr) expr.Expr {
	out := cs[0]
	for _, c := range cs[1:] {
		out = &expr.Logic{Op: expr.And, Left: out, Right: c}
	}
	return out
}

// Input returns a node's input along the plan's spine (a join's left
// side), nil for a scan.
func Input(n Node) Node {
	if r := inputRef(n); r != nil {
		return *r
	}
	return nil
}

// inputRef points at a node's input field, nil for a scan.
func inputRef(n Node) *Node {
	switch x := n.(type) {
	case *Join:
		return &x.Left
	case *Filter:
		return &x.Input
	case *Derive:
		return &x.Input
	case *Aggregate:
		return &x.Input
	case *Window:
		return &x.Input
	case *Project:
		return &x.Input
	case *Sort:
		return &x.Input
	case *Limit:
		return &x.Input
	}
	return nil
}
