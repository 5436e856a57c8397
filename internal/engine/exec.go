package engine

import (
	"fmt"
	"time"

	"blugpu/internal/columnar"
	"blugpu/internal/expr"
	"blugpu/internal/fusion"
	"blugpu/internal/plan"
	"blugpu/internal/trace"
)

// exprGrain is the minimum rows per worker for the engine's per-row host
// loops (group-key decode, sort-key build); each row is heavy enough for
// small chunks.
const exprGrain = 512

// exec dispatches one plan node. The query context q rides along so every
// operator can hang its span off the query root.
func (e *Engine) exec(n plan.Node, q qctx) (*frame, error) {
	if err := q.err(); err != nil {
		return nil, fmt.Errorf("engine: query canceled: %w", err)
	}
	switch node := n.(type) {
	case *plan.Scan:
		return e.execScan(node, q)
	case *plan.Join:
		return e.execJoin(node, q)
	case *plan.Filter:
		return e.execFilter(node, q)
	case *plan.Derive:
		return e.execDerive(node, q)
	case *plan.Aggregate:
		return e.execAggregate(node, q)
	case *plan.Window:
		return e.execWindow(node, q)
	case *plan.Project:
		return e.execProject(node, q)
	case *plan.Sort:
		return e.execSort(node, q)
	case *plan.Limit:
		return e.execLimit(node, q)
	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

// execInput runs an operator's input subtree, then re-checks the query's
// context so cancellation is honored between operators: a query canceled
// while its input ran stops before this operator starts its own work,
// with every reservation the input held already released on its unwind.
func (e *Engine) execInput(n plan.Node, q qctx) (*frame, error) {
	f, err := e.exec(n, q)
	if err != nil {
		return nil, err
	}
	if cerr := q.err(); cerr != nil {
		return nil, fmt.Errorf("engine: query canceled: %w", cerr)
	}
	return f, nil
}

func (e *Engine) execScan(n *plan.Scan, q qctx) (*frame, error) {
	tbl := e.tables[n.Table]
	if tbl == nil {
		return nil, fmt.Errorf("engine: unknown table %q", n.Table)
	}
	// Late materialization: narrow to the referenced columns up front
	// (no copy — the narrowed table shares the column vectors).
	if n.Needed != nil {
		var cols []columnar.Column
		for _, name := range n.Needed {
			if c := tbl.Column(name); c != nil {
				cols = append(cols, c)
			}
		}
		if len(cols) > 0 && len(cols) < tbl.NumColumns() {
			narrowed, err := columnar.NewTable(tbl.Name(), cols...)
			if err == nil {
				tbl = narrowed
			}
		}
	}
	f := &frame{q: q, parts: []part{{tbl: tbl}}}
	row := f.open("scan", q.depth)
	e.addCPU(f, e.model.CPUTime(float64(tbl.Rows()), e.model.CPUScanRate, e.cfg.Degree))
	row.close(tbl.Rows(), n.Table, trace.Str("table", n.Table), trace.Int("rows", int64(tbl.Rows())))
	return f, nil
}

func (e *Engine) execFilter(n *plan.Filter, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	row := f.open("filter", q.depth)
	// The predicate kernels read whole columns: over a join's output the
	// filter lines the parts up first, and is charged the copy.
	e.materialize(f)
	tbl := f.table()
	hostStart := time.Now()
	// The selected rows are the filter's output; nothing is copied.
	rows, err := expr.EvalPredicate(tbl, n.Pred, e.cfg.Degree)
	if err != nil {
		return row.fail(err)
	}
	q.wallHost(hostStart)
	if cr := q.chain; cr.member(n) {
		// Fusion chain bookkeeping: f holds this filter's input, so the
		// deepest member keys the chain's entry. The stage claims one
		// selection-index vector sized by its output.
		e.entryKeys(cr, f)
		cr.stages = append(cr.stages, chainStage{
			kernel: "fused_filter", words: int(fusion.DeviceBytes(len(rows)) / 8), work: float64(tbl.Rows()),
		})
	}
	e.addCPU(f, e.model.CPUTime(float64(tbl.Rows()), e.model.CPUExprRate, e.cfg.Degree))
	row.close(len(rows), n.Pred.String(), trace.Int("rows", int64(len(rows))))
	if len(rows) < tbl.Rows() {
		f.parts[0].rows, f.parts[0].steps = rows, []uint64{filterSide, predKey(tbl, n.Pred), 0}
	}
	return f, nil
}

func (e *Engine) execDerive(n *plan.Derive, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	row := f.open("derive", q.depth)
	e.materialize(f)
	tbl := f.table()
	hostStart := time.Now()
	cols := append([]columnar.Column{}, tbl.Columns()...)
	for _, dc := range n.Cols {
		col, err := expr.EvalColumn(tbl, dc.Name, dc.Expr, e.cfg.Degree)
		if err != nil {
			return row.fail(err)
		}
		cols = append(cols, col)
	}
	q.wallHost(hostStart)
	out, err := columnar.NewTable(tbl.Name()+"_d", cols...)
	if err != nil {
		return row.fail(err)
	}
	if cr := q.chain; cr.member(n) {
		// As in execFilter; the stage claims one code vector per derived
		// column.
		e.entryKeys(cr, f)
		cr.stages = append(cr.stages, chainStage{
			kernel: "fused_derive", words: int(fusion.DeviceBytes(tbl.Rows())/8) * len(n.Cols), work: float64(tbl.Rows() * len(n.Cols)),
		})
	}
	e.addCPU(f, e.model.CPUTime(float64(tbl.Rows()*len(n.Cols)), e.model.CPUExprRate, e.cfg.Degree))
	row.close(out.Rows(), "", trace.Int("rows", int64(out.Rows())))
	f.setTable(out)
	return f, nil
}

func (e *Engine) execProject(n *plan.Project, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	row := f.open("project", q.depth)
	// A project of bare columns hands the parts on, each read through its
	// own list; an expression reads whole columns, so it needs the rows
	// lined up.
	for _, dc := range n.Cols {
		if _, ok := dc.Expr.(*expr.Col); !ok {
			e.materialize(f)
			break
		}
	}
	hostStart := time.Now()
	cols := make([]columnar.Column, len(n.Cols))
	srcs := make([]int, len(n.Cols)) // the input part each column comes from
	exprWork := 0
	for i, dc := range n.Cols {
		for _, prev := range n.Cols[:i] {
			if prev.Name == dc.Name {
				return row.fail(fmt.Errorf("engine: duplicate output column %q", dc.Name))
			}
		}
		// Fast path: a bare column reference shares the source's vectors
		// under the output name.
		if ref, ok := dc.Expr.(*expr.Col); ok {
			c, src := f.find(ref.Name)
			if c == nil {
				return row.fail(fmt.Errorf("engine: unknown column %q", ref.Name))
			}
			cols[i], srcs[i] = c.Rename(dc.Name), src
			continue
		}
		col, err := expr.EvalColumn(f.table(), dc.Name, dc.Expr, e.cfg.Degree)
		if err != nil {
			return row.fail(err)
		}
		cols[i] = col
		exprWork += f.Len()
	}
	// The output in select-list order, as parts: a run of columns from one
	// input part is one part, under that part's list.
	name := f.parts[0].tbl.Name() + "_p"
	parts := make([]part, 0, len(f.parts))
	for lo := 0; lo < len(cols); {
		hi := lo + 1
		for hi < len(cols) && srcs[hi] == srcs[lo] {
			hi++
		}
		in := f.parts[srcs[lo]]
		// Names are unique and lengths equal by construction.
		parts = append(parts, part{tbl: columnar.MustNewTable(name, cols[lo:hi]...), rows: in.rows, steps: in.steps})
		lo = hi
	}
	f.parts = parts
	q.wallHost(hostStart)
	e.addCPU(f, e.model.CPUTime(float64(exprWork), e.model.CPUExprRate, e.cfg.Degree))
	row.close(f.Len(), "", trace.Int("rows", int64(f.Len())))
	return f, nil
}

func (e *Engine) execLimit(n *plan.Limit, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	// A limit cuts every part's list, which no key fixes then; one that
	// cuts nothing leaves them alone.
	if n.N < f.Len() {
		var first []int32
		for i := range f.parts {
			p := &f.parts[i]
			p.steps = nil
			if p.rows != nil {
				p.rows = p.rows[:n.N]
				continue
			}
			if first == nil {
				first = columnar.IotaRows(n.N, e.cfg.Degree)
			}
			p.rows = first
		}
	}
	// Limit charges no modeled time and emits no span: a zero-width row.
	f.ops = append(f.ops, OpStat{Op: "limit", Depth: q.depth, Rows: f.Len(), Start: f.at(), End: f.at()})
	return f, nil
}
