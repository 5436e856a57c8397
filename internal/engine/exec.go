package engine

import (
	"fmt"
	"time"

	"blugpu/internal/columnar"
	"blugpu/internal/expr"
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
	f := &frame{q: q, tbl: tbl}
	start := f.at()
	sp := f.begin("op", "scan")
	t := e.model.CPUTime(float64(tbl.Rows()), e.model.CPUScanRate, e.cfg.Degree)
	e.addCPU(f, t)
	sp.End(f.at(), trace.Str("table", n.Table), trace.Int("rows", int64(tbl.Rows())))
	f.ops = append(f.ops, OpStat{
		Op: "scan", Detail: n.Table, Depth: q.depth, Rows: tbl.Rows(),
		Span: sp.ID(), Start: start, End: f.at(), Modeled: t,
	})
	return f, nil
}

func (e *Engine) execFilter(n *plan.Filter, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	start := f.at()
	sp := f.begin("op", "filter")
	hostStart := time.Now()
	sel, err := expr.EvalPredicate(f.tbl, n.Pred, e.cfg.Degree)
	if err != nil {
		return nil, err
	}
	q.wallHost(hostStart)
	gatherStart := time.Now()
	rows := sel.IndicesDegree(e.cfg.Degree)
	out := columnar.GatherTableDegree(f.tbl.Name()+"_f", f.tbl, rows, e.cfg.Degree)
	q.wallGather(gatherStart)
	if cr := q.chain; cr.member(n) {
		// Fusion chain bookkeeping: f.tbl is still this filter's input
		// here, so the deepest member captures the chain's entry table.
		cr.noteEntry(f.tbl)
		cr.stages = append(cr.stages, chainStage{op: "filter", inRows: f.tbl.Rows(), outRows: out.Rows()})
	}
	t := e.model.CPUTime(float64(f.tbl.Rows()), e.model.CPUExprRate, e.cfg.Degree) +
		e.model.CPUTime(float64(len(rows)*out.NumColumns()), e.model.CPUScanRate, e.cfg.Degree)
	e.addCPU(f, t)
	sp.End(f.at(), trace.Int("rows", int64(out.Rows())))
	f.tbl = out
	f.ops = append(f.ops, OpStat{
		Op: "filter", Detail: n.Pred.String(), Depth: q.depth, Rows: out.Rows(),
		Span: sp.ID(), Start: start, End: f.at(), Modeled: t,
	})
	return f, nil
}

func (e *Engine) execDerive(n *plan.Derive, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	start := f.at()
	sp := f.begin("op", "derive")
	hostStart := time.Now()
	cols := append([]columnar.Column{}, f.tbl.Columns()...)
	for _, dc := range n.Cols {
		col, err := expr.EvalColumn(f.tbl, dc.Name, dc.Expr, e.cfg.Degree)
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
	}
	q.wallHost(hostStart)
	out, err := columnar.NewTable(f.tbl.Name()+"_d", cols...)
	if err != nil {
		return nil, err
	}
	if cr := q.chain; cr.member(n) {
		cr.noteEntry(f.tbl)
		cr.stages = append(cr.stages, chainStage{op: "derive", inRows: f.tbl.Rows(), outRows: out.Rows(), cols: len(n.Cols)})
	}
	t := e.model.CPUTime(float64(f.tbl.Rows()*len(n.Cols)), e.model.CPUExprRate, e.cfg.Degree)
	e.addCPU(f, t)
	sp.End(f.at(), trace.Int("rows", int64(out.Rows())))
	f.tbl = out
	f.ops = append(f.ops, OpStat{
		Op: "derive", Depth: q.depth, Rows: out.Rows(),
		Span: sp.ID(), Start: start, End: f.at(), Modeled: t,
	})
	return f, nil
}

func (e *Engine) execProject(n *plan.Project, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	start := f.at()
	sp := f.begin("op", "project")
	hostStart := time.Now()
	cols := make([]columnar.Column, len(n.Cols))
	exprWork := 0
	for i, dc := range n.Cols {
		// Fast path: a bare column reference shares the source's vectors
		// under the output name.
		if ref, ok := dc.Expr.(*expr.Col); ok {
			src := f.tbl.Column(ref.Name)
			if src == nil {
				return nil, fmt.Errorf("engine: unknown column %q", ref.Name)
			}
			cols[i] = src.Rename(dc.Name)
			continue
		}
		col, err := expr.EvalColumn(f.tbl, dc.Name, dc.Expr, e.cfg.Degree)
		if err != nil {
			return nil, err
		}
		cols[i] = col
		exprWork += f.tbl.Rows()
	}
	out, err := columnar.NewTable(f.tbl.Name()+"_p", cols...)
	if err != nil {
		return nil, err
	}
	q.wallHost(hostStart)
	t := e.model.CPUTime(float64(exprWork), e.model.CPUExprRate, e.cfg.Degree)
	e.addCPU(f, t)
	sp.End(f.at(), trace.Int("rows", int64(out.Rows())))
	f.tbl = out
	f.ops = append(f.ops, OpStat{
		Op: "project", Depth: q.depth, Rows: out.Rows(),
		Span: sp.ID(), Start: start, End: f.at(), Modeled: t,
	})
	return f, nil
}

func (e *Engine) execLimit(n *plan.Limit, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	// A limit that cuts nothing passes its input through uncopied.
	if n.N < f.tbl.Rows() {
		rows := columnar.IotaRows(n.N, e.cfg.Degree)
		f.tbl = columnar.GatherTableDegree(f.tbl.Name()+"_l", f.tbl, rows, e.cfg.Degree)
	}
	// Limit charges no modeled time and emits no span: a zero-width row.
	f.ops = append(f.ops, OpStat{Op: "limit", Depth: q.depth, Rows: f.tbl.Rows(), Start: f.at(), End: f.at()})
	return f, nil
}
