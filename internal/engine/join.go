package engine

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"blugpu/internal/columnar"
	"blugpu/internal/expr"
	"blugpu/internal/parallel"
	"blugpu/internal/plan"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// joinGrain is the minimum probe rows per worker: a probe is one index
// lookup per row, so small chunks are all goroutine handoff.
const joinGrain = 4096

// probeSide and buildSide tag the side a join output column was gathered
// from in its provenance key.
const (
	probeSide uint64 = 1
	buildSide uint64 = 2
)

// execJoin is an inner equi-join on one integer key. The smaller side —
// by logical row count — is the build side and supplies its key column's
// index (resident on the column, so a base-table dimension builds once per
// process); the larger side probes it count-then-fill. The left input is
// read through its row list, never copied first: probe keys are read
// through the list, and each output column is gathered once, through the
// list composed with the match. A join predicate is evaluated once over
// the joined base table: the probe skips the build rows it rejects, or,
// when the joined table probes, reads only the rows it keeps. Output rows
// are in probe order, a probe row's matches in ascending build-row order.
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
	if n.Pred != nil {
		if _, err := n.Pred.TypeOf(right); err != nil {
			return nil, err
		}
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
	hostStart := time.Now()

	// A side's identity in its output columns' provenance keys: its key
	// column's key, and what narrowed its rows — the left's row list, the
	// joined table's predicate.
	leftID, rightID := lk.Key(), rk.Key()
	if left.rows != nil {
		leftID = columnar.MixKeys(leftID, left.rowsKey)
	}
	var kept []int32 // the joined table's rows the predicate keeps; nil: every row
	var predT vtime.Duration
	if n.Pred != nil {
		kept, err = expr.EvalPredicate(right, n.Pred, e.cfg.Degree)
		if err != nil {
			sp.End(left.at(), trace.Str("error", err.Error()))
			return nil, err
		}
		rightID = columnar.MixKeys(rightID, predKey(right, n.Pred))
		predT = e.model.CPUTime(float64(right.Rows()), e.model.CPUExprRate, e.cfg.Degree)
	}

	// Build on the smaller input, probe the larger.
	leftN := left.numRows()
	buildRight := right.Rows() <= leftN
	var m joinMatch
	var leftRows, rightRows []int32
	var buildN, probeN int
	if buildRight {
		var keep *columnar.Bitmap
		if kept != nil {
			keep = columnar.NewBitmap(right.Rows())
			for _, r := range kept {
				keep.Set(int(r))
			}
		}
		m, err = probeJoin(rk.KeyIndex(), lk, left.rows, keep, e.cfg.Degree)
		leftRows, rightRows = m.probeRows, m.buildRows
		if m.identity {
			leftRows = left.rows
		}
		buildN, probeN = right.Rows(), leftN
	} else {
		// The left builds: its key column through its list, a per-query
		// index; build rows are then list positions.
		bk := lk
		if left.rows != nil {
			bk = lk.GatherDegree(lcol, left.rows, e.cfg.Degree)
		}
		m, err = probeJoin(bk.KeyIndex(), rk, kept, nil, e.cfg.Degree)
		leftRows, rightRows = m.buildRows, m.probeRows
		if m.identity {
			rightRows = kept
		}
		if left.rows != nil {
			for i, r := range leftRows {
				leftRows[i] = left.rows[r]
			}
		}
		buildN, probeN = leftN, right.Rows()
		if kept != nil {
			probeN = len(kept)
		}
	}
	if err != nil {
		sp.End(left.at(), trace.Str("error", err.Error()))
		return nil, err
	}
	q.wallHost(hostStart)

	// Materialize. Columns are immutable, so a side whose rows are all of
	// its input, in order — every probe row matched exactly once, nothing
	// listed or masked — goes into the output as it is: vectors, memoised
	// content hash and all. A gathered column's cache key is its
	// provenance: its source column's key, its side, and the two sides'
	// identities, which fix the rows gathered. Equal provenance is equal
	// content, so the fusion cache never hashes a join output. A list no
	// filter made has no provenance: columns gathered through it are keyed
	// by content.
	gatherStart := time.Now()
	leftSide, rightSide := probeSide, buildSide
	probeID, buildID := leftID, rightID
	if !buildRight {
		leftSide, rightSide = rightSide, leftSide
		probeID, buildID = buildID, probeID
	}
	keyed := left.rows == nil || left.rowsKeyed
	cols := make([]columnar.Column, 0, len(leftCols)+len(rightCols))
	gather := func(side []columnar.Column, rows []int32, tag uint64) {
		for _, c := range side {
			if rows != nil {
				g := columnar.GatherColumnDegree(c, c.Name(), rows, e.cfg.Degree)
				if keyed {
					g = columnar.WithKey(g, columnar.MixKeys(c.Key(), tag, probeID, buildID))
				}
				c = g
			}
			cols = append(cols, c)
		}
	}
	gather(leftCols, leftRows, leftSide)
	gather(rightCols, rightRows, rightSide)
	// Unique names and equal lengths hold by construction.
	out := columnar.MustNewTable(left.tbl.Name()+"_j", cols...)
	q.wallGather(gatherStart)

	t := predT +
		e.model.CPUTime(float64(buildN), e.model.CPUHashBuildRate, e.cfg.Degree) +
		e.model.CPUTime(float64(probeN), e.model.CPUHashProbeRate, e.cfg.Degree) +
		e.model.CPUTime(float64(out.Rows()*out.NumColumns()), e.model.CPUScanRate, e.cfg.Degree)
	e.addCPU(left, t)
	detail := fmt.Sprintf("%s on %s=%s", n.Table, lcol, rcol)
	attrs := []trace.Attr{trace.Str("table", n.Table), trace.Int("rows", int64(out.Rows()))}
	if n.Pred != nil {
		detail += fmt.Sprintf(" where %s kept %d of %d", n.Pred, len(kept), right.Rows())
		attrs = append(attrs, trace.Int("kept", int64(len(kept))))
	}
	sp.End(left.at(), attrs...)
	left.tbl, left.rows = out, nil
	left.ops = append(left.ops, OpStat{
		Op: "join", Detail: detail,
		Depth: q.depth, Rows: out.Rows(),
		Span: sp.ID(), Start: start, End: left.at(), Modeled: t,
	})
	return left, nil
}

// predKey is a predicate's identity over tbl: its text and the keys of the
// columns it reads, which together fix the rows it selects.
func predKey(tbl *columnar.Table, pred expr.Expr) uint64 {
	h := fnv.New64a()
	h.Write([]byte(pred.String()))
	keys := []uint64{h.Sum64()}
	for _, name := range expr.Columns(pred) {
		keys = append(keys, tbl.Column(name).Key())
	}
	return columnar.MixKeys(keys...)
}

// joinMatch is a join's match list: pair i joins probe row probeRows[i]
// with build row buildRows[i], pairs in probe order and a probe row's
// matches in ascending build-row order.
type joinMatch struct {
	probeRows, buildRows []int32
	// identity: every probe row matched exactly once, so probeRows would be
	// the probe rows in order and is left nil — the probe side's columns,
	// or its list, are the output's.
	identity bool
}

// probeJoin probes idx with the non-NULL keys of probe at rows (nil: every
// row, in order), count-then-fill: each worker looks its 64-aligned range
// of the list up once, remembering every probe row's lowest match and
// counting the matches behind it; a prefix sum turns the counts into
// offsets; each worker then walks its rows' chains into the lists at its
// offset. A build row keep does not hold (nil holds every row) never
// matches. The lists are allocated once, at exact size, name probe rows by
// their row in probe, not their place in rows, and are the same at every
// degree. On an identity match the remembered lowest matches are the
// build-side list and there is nothing to fill.
func probeJoin(idx *columnar.KeyIndex, probe *columnar.Int64Column, rows []int32, keep *columnar.Bitmap, degree int) (joinMatch, error) {
	n := probe.Len()
	if rows != nil {
		n = len(rows)
	}
	keys, nulls := probe.Data(), probe.Nulls()
	first := make([]int32, n)
	offsets := make([]int64, parallel.Workers(n, joinGrain, degree))
	parallel.For(n, joinGrain, degree, func(lo, hi, worker int) {
		var c int64
		if rows == nil && keep == nil {
			// The unlisted, unmasked probe — every join with nothing
			// placed under it — without the two per-row tests below,
			// which add about a quarter to its time
			// (BenchmarkJoinProbe/dense2k).
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
			return
		}
		for i := lo; i < hi; i++ {
			row := i
			if rows != nil {
				row = int(rows[i])
			}
			r := int32(-1)
			if nulls == nil || !nulls.Get(row) {
				r = idx.First(keys[row])
			}
			for keep != nil && r >= 0 && !keep.Get(int(r)) {
				r = idx.Next(r)
			}
			first[i] = r
			for ; r >= 0; r = idx.Next(r) {
				if keep == nil || keep.Get(int(r)) {
					c++
				}
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
			row := int32(i)
			if rows != nil {
				row = rows[i]
			}
			for r := first[i]; r >= 0; r = idx.Next(r) {
				if keep == nil || keep.Get(int(r)) {
					m.probeRows[pos] = row
					m.buildRows[pos] = r
					pos++
				}
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
