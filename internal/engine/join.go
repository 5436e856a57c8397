package engine

import (
	"fmt"
	"math"
	"time"

	"blugpu/internal/columnar"
	"blugpu/internal/parallel"
	"blugpu/internal/plan"
	"blugpu/internal/trace"
)

// joinGrain is the minimum probe rows per worker: a probe is one index
// lookup per row, so small chunks are all goroutine handoff.
const joinGrain = 4096

// execJoin is an inner equi-join on one integer key. The smaller side is
// the build side and supplies its key column's index (resident on the
// column, so a base-table dimension builds once per process); the larger
// side probes it count-then-fill. Output rows are in probe order, a probe
// row's matches in ascending build-row order.
func (e *Engine) execJoin(n *plan.Join, q qctx) (*frame, error) {
	left, err := e.execInput(n.Left, q.deeper())
	if err != nil {
		return nil, err
	}

	// Everything that can reject the join is checked before the span opens
	// and before any work is done on its behalf.
	right := e.tables[n.Table]
	if right == nil {
		return nil, fmt.Errorf("engine: unknown join table %q", n.Table)
	}
	// Resolve which condition column belongs to which side.
	lcol, rcol := n.LeftCol, n.RightCol
	if !left.tbl.HasColumn(lcol) && left.tbl.HasColumn(rcol) {
		lcol, rcol = rcol, lcol
	}
	if left.tbl.Column(lcol) == nil || right.Column(rcol) == nil {
		return nil, fmt.Errorf("engine: join condition %s=%s references unknown columns", n.LeftCol, n.RightCol)
	}
	lk, ok := left.tbl.Column(lcol).(*columnar.Int64Column)
	if !ok {
		return nil, fmt.Errorf("engine: join column %q must be an integer key", lcol)
	}
	rk, ok := right.Column(rcol).(*columnar.Int64Column)
	if !ok {
		return nil, fmt.Errorf("engine: join column %q must be an integer key", rcol)
	}
	// The output is both sides restricted to the referenced columns (late
	// materialization); column names must stay unique.
	wanted := func(name string) bool {
		if n.Needed == nil {
			return true
		}
		for _, w := range n.Needed {
			if w == name {
				return true
			}
		}
		return false
	}
	var leftCols, rightCols []columnar.Column
	for _, c := range left.tbl.Columns() {
		if wanted(c.Name()) {
			leftCols = append(leftCols, c)
		}
	}
	for _, c := range right.Columns() {
		if left.tbl.HasColumn(c.Name()) {
			if c.Name() == rcol || c.Name() == lcol {
				continue // drop the duplicate join key
			}
			return nil, fmt.Errorf("engine: duplicate column %q across join of %s", c.Name(), n.Table)
		}
		if wanted(c.Name()) {
			rightCols = append(rightCols, c)
		}
	}
	if len(leftCols)+len(rightCols) == 0 {
		return nil, fmt.Errorf("engine: join of %s would produce no columns", n.Table)
	}

	start := left.at()
	sp := left.begin("op", "join")

	// Build on the smaller input, probe the larger.
	hostStart := time.Now()
	buildRight := right.Rows() <= left.tbl.Rows()
	buildKeys, probeKeys := rk, lk
	if !buildRight {
		buildKeys, probeKeys = lk, rk
	}
	m, err := probeJoin(buildKeys.KeyIndex(), probeKeys, e.cfg.Degree)
	if err != nil {
		sp.End(left.at(), trace.Str("error", err.Error()))
		return nil, err
	}
	q.wallHost(hostStart)

	// Materialize. Columns are immutable, so when every probe row matched
	// exactly once the probe side goes into the output as it is — vectors,
	// memoised content hash and all — and only the build side is gathered.
	gatherStart := time.Now()
	leftRows, rightRows := m.probeRows, m.buildRows
	if !buildRight {
		leftRows, rightRows = rightRows, leftRows
	}
	cols := make([]columnar.Column, 0, len(leftCols)+len(rightCols))
	gather := func(side []columnar.Column, rows []int32, asIs bool) {
		for _, c := range side {
			if !asIs {
				c = columnar.GatherColumnDegree(c, c.Name(), rows, e.cfg.Degree)
			}
			cols = append(cols, c)
		}
	}
	gather(leftCols, leftRows, m.identity && buildRight)
	gather(rightCols, rightRows, m.identity && !buildRight)
	// Unique names and equal lengths hold by construction.
	out := columnar.MustNewTable(left.tbl.Name()+"_j", cols...)
	q.wallGather(gatherStart)

	t := e.model.CPUTime(float64(buildKeys.Len()), e.model.CPUHashBuildRate, e.cfg.Degree) +
		e.model.CPUTime(float64(probeKeys.Len()), e.model.CPUHashProbeRate, e.cfg.Degree) +
		e.model.CPUTime(float64(out.Rows()*out.NumColumns()), e.model.CPUScanRate, e.cfg.Degree)
	e.addCPU(left, t)
	sp.End(left.at(), trace.Str("table", n.Table), trace.Int("rows", int64(out.Rows())))
	left.tbl = out
	left.ops = append(left.ops, OpStat{
		Op: "join", Detail: fmt.Sprintf("%s on %s=%s", n.Table, lcol, rcol),
		Depth: q.depth, Rows: out.Rows(),
		Span: sp.ID(), Start: start, End: left.at(), Modeled: t,
	})
	return left, nil
}

// joinMatch is a join's match list: pair i joins probe row probeRows[i]
// with build row buildRows[i], pairs in probe order and a probe row's
// matches in ascending build-row order.
type joinMatch struct {
	probeRows, buildRows []int32
	// identity: every probe row matched exactly once, so probeRows would be
	// [0, n) and is left nil — the probe side's columns are the output's.
	identity bool
}

// probeJoin probes idx with every non-NULL key of probe, count-then-fill:
// each worker looks its 64-aligned row range up once, remembering every
// row's lowest match and counting the matches behind it; a prefix sum turns
// the counts into offsets; each worker then walks its rows' chains into the
// lists at its offset. The lists are allocated once, at exact size, and are
// the same at every degree. On an identity match the remembered lowest
// matches are the build-side list and there is nothing to fill.
func probeJoin(idx *columnar.KeyIndex, probe *columnar.Int64Column, degree int) (joinMatch, error) {
	n := probe.Len()
	keys, nulls := probe.Data(), probe.Nulls()
	first := make([]int32, n)
	offsets := make([]int64, parallel.Workers(n, joinGrain, degree))
	parallel.For(n, joinGrain, degree, func(lo, hi, worker int) {
		var c int64
		for i := lo; i < hi; i++ {
			r := int32(-1)
			if nulls == nil || !nulls.Get(i) {
				r = idx.First(keys[i])
			}
			first[i] = r
			for ; r >= 0; r = idx.Next(r) {
				c++
			}
		}
		offsets[worker] = c
	})
	total, err := matchOffsets(offsets)
	if err != nil {
		return joinMatch{}, err
	}
	if idx.Unique() && total == n {
		return joinMatch{buildRows: first, identity: true}, nil
	}
	m := joinMatch{probeRows: make([]int32, total), buildRows: make([]int32, total)}
	parallel.For(n, joinGrain, degree, func(lo, hi, worker int) {
		pos := offsets[worker]
		for i := lo; i < hi; i++ {
			for r := first[i]; r >= 0; r = idx.Next(r) {
				m.probeRows[pos] = int32(i)
				m.buildRows[pos] = r
				pos++
			}
		}
	})
	return m, nil
}

// matchOffsets turns per-worker match counts into each worker's offset in
// the match list, in place, and returns the total. Row ids are int32, so
// a join with more matches than that is refused here, before anything of
// that size is allocated.
func matchOffsets(counts []int64) (int, error) {
	var total int64
	for w, c := range counts {
		counts[w] = total
		total += c
		if total > math.MaxInt32 {
			return 0, fmt.Errorf("engine: join produces more than %d rows", math.MaxInt32)
		}
	}
	return int(total), nil
}
