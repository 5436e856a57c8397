package plan

import (
	"sort"

	"blugpu/internal/expr"
)

// prune annotates Scan and Join nodes with the set of columns actually
// referenced above them — BLU-style late materialization, so joins only
// hand on the columns the query touches. A join's own key columns are
// read below it, by the join, not above it: they are in its Needed only
// when something above reads them too.
func prune(root Node) {
	visit(root, map[string]bool{})
}

// visit walks down the tree accumulating needed columns.
func visit(n Node, needed map[string]bool) {
	switch node := n.(type) {
	case *Scan:
		node.Needed = sortedKeys(needed)
	case *Join:
		node.Needed = sortedKeys(needed)
		needed[node.LeftCol] = true
		needed[node.RightCol] = true
		visit(node.Left, needed)
	case *Filter:
		collectExprCols(node.Pred, needed)
		visit(node.Input, needed)
	case *Derive:
		for _, c := range node.Cols {
			// The derived name itself is produced, not consumed below.
			delete(needed, c.Name)
			collectExprCols(c.Expr, needed)
		}
		visit(node.Input, needed)
	case *Aggregate:
		// Aggregation is a hard boundary: below it, only keys and
		// aggregate inputs matter.
		below := map[string]bool{}
		for _, k := range node.Keys {
			below[k] = true
		}
		for _, a := range node.Aggs {
			if a.Column != "" {
				below[a.Column] = true
			}
		}
		visit(node.Input, below)
	case *Window:
		for _, p := range node.PartitionBy {
			needed[p] = true
		}
		for _, o := range node.OrderBy {
			needed[o.Column] = true
		}
		delete(needed, node.Out)
		visit(node.Input, needed)
	case *Project:
		below := map[string]bool{}
		for _, c := range node.Cols {
			collectExprCols(c.Expr, below)
		}
		// Anything the caller needs above Project resolves to projected
		// names, which the projection computes from `below`.
		visit(node.Input, below)
	case *Sort:
		for _, k := range node.Keys {
			needed[k.Column] = true
		}
		visit(node.Input, needed)
	case *Limit:
		visit(node.Input, needed)
	}
}

// collectExprCols adds every column referenced by e to set.
func collectExprCols(e expr.Expr, set map[string]bool) {
	switch x := e.(type) {
	case nil:
	case *expr.Col:
		set[x.Name] = true
	case *expr.Arith:
		collectExprCols(x.Left, set)
		collectExprCols(x.Right, set)
	case *expr.Cmp:
		collectExprCols(x.Left, set)
		collectExprCols(x.Right, set)
	case *expr.Logic:
		collectExprCols(x.Left, set)
		collectExprCols(x.Right, set)
	case *expr.Not:
		collectExprCols(x.Inner, set)
	case *expr.Between:
		collectExprCols(x.X, set)
		collectExprCols(x.Lo, set)
		collectExprCols(x.Hi, set)
	case *expr.In:
		collectExprCols(x.X, set)
	case *expr.IsNull:
		collectExprCols(x.X, set)
	}
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
