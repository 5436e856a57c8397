package engine

import (
	"time"

	"blugpu/internal/columnar"
	"blugpu/internal/des"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// frame is an intermediate execution state: a relation made of parts, each
// a table read through a row list of its own, all of one logical length.
// A scan is one part with no list. Filter, sort and limit narrow or
// reorder the lists; a join composes the left parts' lists with its match
// and adds the joined table as a part whose list is its side of the match.
// No operator copies a value on the way: the next join's probe key, the
// sort key and the evaluator chain read their columns through their
// part's list, and an operator that needs the values lined up calls
// materialize, the one place columns are copied. What fixes a listed
// part's rows is recorded on the part alone (part.steps), so the frame
// carries no state of its own about its lists.
type frame struct {
	q       qctx
	parts   []part
	modeled vtime.Duration
	phases  []des.Phase
	ops     []OpStat
	gpuUsed bool
}

// part is one table of a frame and the rows of it the frame holds.
type part struct {
	tbl *columnar.Table
	// rows lists tbl's rows in frame order; nil holds every row, in order.
	// Lists are never written once made, so parts may share one.
	rows []int32
	// steps is the part's provenance, what fixed its list: one (side,
	// identity, identity) triple per operator that did, in order — a
	// filter's (filterSide, predKey, 0), a join's (side, probe identity,
	// build identity). A column copied through the list is keyed by its
	// source column's key mixed with each triple in turn, so the fusion
	// cache never hashes a filter's or a join's output: equal provenance
	// is equal content. A sort, a limit and a group-by's top-k leave a
	// list no key fixes and no steps.
	steps []uint64
}

// Len is the frame's row count: the logical one, which operator rows,
// spans and every modeled formula use.
func (f *frame) Len() int {
	p := f.parts[0]
	if p.rows == nil {
		return p.tbl.Rows()
	}
	return len(p.rows)
}

// Listed returns the named column and the list it is read through, or a
// nil column when no part has it. A frame is a columnar.Source.
func (f *frame) Listed(name string) (columnar.Column, []int32) {
	if c, i := f.find(name); c != nil {
		return c, f.parts[i].rows
	}
	return nil, nil
}

// find returns the named column and the index of its part, nil and -1
// when no part has it.
func (f *frame) find(name string) (columnar.Column, int) {
	for i, p := range f.parts {
		if c := p.tbl.Column(name); c != nil {
			return c, i
		}
	}
	return nil, -1
}

// hasColumn reports whether some part has the named column.
func (f *frame) hasColumn(name string) bool {
	c, _ := f.find(name)
	return c != nil
}

// lined reports whether the frame's values are lined up: one part, read
// in order. Only then is table its content.
func (f *frame) lined() bool { return len(f.parts) == 1 && f.parts[0].rows == nil }

// table is the frame's one table; callers materialize first.
func (f *frame) table() *columnar.Table { return f.parts[0].tbl }

// setTable makes tbl the frame's content: one part, no list.
func (f *frame) setTable(tbl *columnar.Table) { f.parts = []part{{tbl: tbl}} }

// keyed reports whether a key fixes p's rows: p is unlisted, or its steps
// fixed its list. A copy of a listed part's column is keyed by the part's
// provenance then, and by content otherwise.
func (p part) keyed() bool { return p.rows == nil || len(p.steps) > 0 }

// filtered reports whether p's last step is a filter's.
func (p part) filtered() bool { return len(p.steps) > 0 && p.steps[len(p.steps)-3] == filterSide }

// composeParts composes each part's list with sel, a list of places in
// the frame, and returns the rows composed: a part with no list takes sel
// itself.
func composeParts(parts []part, sel []int32, degree int) int {
	composed := 0
	for i := range parts {
		if parts[i].rows != nil {
			composed += len(sel)
		}
		parts[i].rows = columnar.ComposeRows(parts[i].rows, sel, degree)
	}
	return composed
}

// materialize copies every listed part's columns through its list into
// one table and charges the copy — rows times columns copied — to the
// frame, inside the row of the operator that asked for it: derive,
// window, an expression project, a filter over a join's output, or the
// query result. A query copies a column at most once, here. A copied
// column is keyed by its part's provenance when the part is keyed, by
// content otherwise; a part with no list hands its columns on as they
// are. A lined-up frame is left alone.
func (e *Engine) materialize(f *frame) {
	if f.lined() {
		return
	}
	start := time.Now()
	n, copied, width := f.Len(), 0, 0
	for _, p := range f.parts {
		width += p.tbl.NumColumns()
	}
	cols := make([]columnar.Column, 0, width)
	for _, p := range f.parts {
		for _, c := range p.tbl.Columns() {
			if p.rows != nil {
				g := columnar.GatherColumnDegree(c, c.Name(), p.rows, e.cfg.Degree)
				if p.keyed() {
					g = columnar.WithKey(g, provenanceKey(c, p.steps))
				}
				c = g
				copied++
				if copyHook != nil {
					copyHook(c)
				}
			}
			cols = append(cols, c)
		}
	}
	// Unique names and equal lengths hold by construction.
	f.setTable(columnar.MustNewTable(f.parts[0].tbl.Name(), cols...))
	f.q.wallGather(start)
	e.addCPU(f, e.model.CPUTime(float64(n*copied), e.model.CPUScanRate, e.cfg.Degree))
}

// copyHook, when set, sees every column materialize copies. Tests count
// copies through it.
var copyHook func(col columnar.Column)

// at returns the frame's current offset on the trace timeline: the query
// start plus everything charged so far. Operator spans begin at at(),
// charge their modeled time, and end at the new at(), which lays children
// of the query root out sequentially in virtual time.
func (f *frame) at() vtime.Time { return f.q.base.Add(f.modeled) }

// opRow is one operator's row in the making: its span, opened on the
// frame's clock, and the frame's charge when it opened.
type opRow struct {
	f     *frame
	sp    trace.Context
	op    string
	depth int
	from  vtime.Duration
}

// open begins operator op's row at plan depth depth: its span starts at
// the frame's clock.
func (f *frame) open(op string, depth int) opRow {
	return opRow{f: f, sp: f.q.tc.Begin("op", op, f.at()), op: op, depth: depth, from: f.modeled}
}

// close ends the row's span with attrs and appends the row to the frame.
// Its self time is everything charged to the frame since open, so the
// rows of a query tile its modeled time. The row is returned for the
// group-by and the sorts to attach their records to.
func (r opRow) close(rows int, detail string, attrs ...trace.Attr) *OpStat {
	f := r.f
	r.sp.End(f.at(), attrs...)
	f.ops = append(f.ops, OpStat{
		Op: r.op, Detail: detail, Depth: r.depth, Rows: rows,
		Span: r.sp.ID(), Start: f.q.base.Add(r.from), End: f.at(), Modeled: f.modeled - r.from,
	})
	return &f.ops[len(f.ops)-1]
}

// fail ends the row's span with the error that stopped the operator, so
// a failed query leaves no span open, and returns the error. A failed
// operator appends no row.
func (r opRow) fail(err error) (*frame, error) {
	r.sp.End(r.f.at(), trace.Str("error", err.Error()))
	return nil, err
}
