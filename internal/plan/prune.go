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
		addCols(needed, node.Pred)
		visit(node.Input, needed)
	case *Derive:
		for _, c := range node.Cols {
			// The derived name itself is produced, not consumed below.
			delete(needed, c.Name)
			addCols(needed, c.Expr)
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
			addCols(below, c.Expr)
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

// addCols adds every column e references to set.
func addCols(set map[string]bool, e expr.Expr) {
	for _, c := range expr.Columns(e) {
		set[c] = true
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
