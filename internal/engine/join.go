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
// process); the larger side probes it count-then-fill. The join copies no
// values. The left key is read through its part's list; each left part's
// list is composed with the match, or left alone when every left row
// matched exactly once, in order; the joined table becomes a part of its
// own whose list is its side of the match. A join predicate is evaluated
// once over the joined base table: the probe skips the build rows it
// rejects, or, when the joined table probes, reads only the rows it keeps.
// Output rows are in probe order, a probe row's matches in ascending
// build-row order.
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
	if !left.hasColumn(lcol) && left.hasColumn(rcol) {
		lcol, rcol = rcol, lcol
	}
	lc, lpart := left.find(lcol)
	if lc == nil || right.Column(rcol) == nil {
		return nil, fmt.Errorf("engine: join condition %s=%s references unknown columns", n.LeftCol, n.RightCol)
	}
	lk, ok := lc.(*columnar.Int64Column)
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
	// The output is both sides restricted to the columns read above the
	// join (late materialization): the left parts narrowed, the joined
	// table's columns as a new part. Column names must stay unique.
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
	for _, c := range right.Columns() {
		if left.hasColumn(c.Name()) && c.Name() != rcol && c.Name() != lcol {
			return nil, fmt.Errorf("engine: duplicate column %q across join of %s", c.Name(), n.Table)
		}
	}
	parts := make([]part, 0, len(left.parts)+1)
	for _, p := range left.parts {
		if p.tbl = narrow(p.tbl, wanted); p.tbl != nil {
			parts = append(parts, p)
		}
	}
	// The duplicate join key is dropped: the left's is the output's.
	rightTbl := narrow(right, func(name string) bool { return wanted(name) && !left.hasColumn(name) })
	if len(parts) == 0 && rightTbl == nil {
		// Nothing above reads a column, only the rows: the left key
		// carries them.
		p := left.parts[lpart]
		p.tbl = columnar.MustNewTable(p.tbl.Name(), lk)
		parts = append(parts, p)
	}

	start := left.at()
	sp := left.begin("op", "join")
	hostStart := time.Now()

	// A side's identity in its copied columns' provenance keys: its key
	// column's key — the one a copy of it would carry — and what narrowed
	// its rows: the left's filter, the joined table's predicate.
	leftID, rightID := provenanceKey(lk, left.parts[lpart].steps), rk.Key()
	if left.sel == selKeyed {
		leftID = columnar.MixKeys(leftID, left.selKey)
	}
	lrows := left.parts[lpart].rows
	var kept []int32 // the joined table's rows the predicate keeps; nil: every row
	var predT vtime.Duration
	if n.Pred != nil {
		kept, err = expr.EvalPredicate(right, n.Pred, e.cfg.Degree)
		if err != nil {
			return left.fail(sp, err)
		}
		rightID = columnar.MixKeys(rightID, predKey(right, n.Pred))
		predT = e.model.CPUTime(float64(right.Rows()), e.model.CPUExprRate, e.cfg.Degree)
	}

	// Build on the smaller input, probe the larger. leftPos is the left
	// places the output reads, nil when it reads every one in order;
	// rightRows the joined table's rows, nil for every row.
	leftN := left.Len()
	buildRight := right.Rows() <= leftN
	var m joinMatch
	var leftPos, rightRows []int32
	var buildN, probeN, composed int
	if buildRight {
		var keep *columnar.Bitmap
		if kept != nil {
			keep = columnar.NewBitmap(right.Rows())
			for _, r := range kept {
				keep.Set(int(r))
			}
		}
		m, err = probeJoin(rk.KeyIndex(), lk, lrows, keep, e.cfg.Degree)
		if !m.identity {
			leftPos = m.probeRows
		}
		rightRows = m.buildRows
		buildN, probeN = right.Rows(), leftN
	} else {
		// The left builds: its key column read through its list, a
		// per-query index whose rows are left places.
		m, err = probeJoin(lk.KeyIndexOf(lrows), rk, kept, nil, e.cfg.Degree)
		leftPos, rightRows = m.buildRows, kept
		if !m.identity {
			rightRows = columnar.ComposeRows(kept, m.probeRows, e.cfg.Degree)
			if kept != nil {
				composed += len(rightRows)
			}
		}
		buildN, probeN = leftN, right.Rows()
		if kept != nil {
			probeN = len(kept)
		}
	}
	if err != nil {
		return left.fail(sp, err)
	}
	q.wallHost(hostStart)

	// Compose the left lists and record each listed part's provenance:
	// the step a copy through its list mixes into its source column's
	// key, with the two sides' identities, which fix the rows. A part the
	// join hands on unlisted and unfiltered takes no step: its columns
	// come out as they went in. Over lists no key fixes (a sort's or a
	// limit's) the steps are not taken, and copies are keyed by content.
	composeStart := time.Now()
	leftSide, rightSide := probeSide, buildSide
	probeID, buildID := leftID, rightID
	if !buildRight {
		leftSide, rightSide = rightSide, leftSide
		probeID, buildID = buildID, probeID
	}
	keyed := left.sel != selUnkeyed && !left.unkeyed
	if leftPos != nil {
		composed += composeParts(parts, leftPos, e.cfg.Degree)
	}
	step := func(steps []uint64, side uint64) []uint64 {
		return append(steps[:len(steps):len(steps)], side, probeID, buildID)
	}
	for i := range parts {
		if keyed && (leftPos != nil || left.sel != selNone) {
			parts[i].steps = step(parts[i].steps, leftSide)
		}
	}
	if rightTbl != nil {
		rp := part{tbl: rightTbl, rows: rightRows}
		if keyed && rightRows != nil {
			rp.steps = step(nil, rightSide)
		}
		parts = append(parts, rp)
	}
	left.parts = parts
	left.sel, left.selKey, left.unkeyed = selNone, 0, !keyed
	q.wallGather(composeStart)

	outRows := left.Len()
	t := predT +
		e.model.CPUTime(float64(buildN), e.model.CPUHashBuildRate, e.cfg.Degree) +
		e.model.CPUTime(float64(probeN), e.model.CPUHashProbeRate, e.cfg.Degree) +
		e.model.CPUTime(float64(composed), e.model.CPUScanRate, e.cfg.Degree)
	e.addCPU(left, t)
	detail := fmt.Sprintf("%s on %s=%s", n.Table, lcol, rcol)
	attrs := []trace.Attr{trace.Str("table", n.Table), trace.Int("rows", int64(outRows))}
	if n.Pred != nil {
		detail += fmt.Sprintf(" where %s kept %d of %d", n.Pred, len(kept), right.Rows())
		attrs = append(attrs, trace.Int("kept", int64(len(kept))))
	}
	sp.End(left.at(), attrs...)
	left.ops = append(left.ops, OpStat{
		Op: "join", Detail: detail,
		Depth: q.depth, Rows: outRows,
		Span: sp.ID(), Start: start, End: left.at(), Modeled: t,
	})
	return left, nil
}

// narrow returns tbl restricted to the columns keep holds, in order: tbl
// itself when it holds them all, nil when it holds none.
func narrow(tbl *columnar.Table, keep func(name string) bool) *columnar.Table {
	n := 0
	for _, c := range tbl.Columns() {
		if keep(c.Name()) {
			n++
		}
	}
	switch n {
	case 0:
		return nil
	case tbl.NumColumns():
		return tbl
	}
	cols := make([]columnar.Column, 0, n)
	for _, c := range tbl.Columns() {
		if keep(c.Name()) {
			cols = append(cols, c)
		}
	}
	return columnar.MustNewTable(tbl.Name(), cols...)
}

// provenanceKey is the key a copy of c through a list with the given
// provenance steps carries: c's own key mixed with each step in turn.
func provenanceKey(c columnar.Column, steps []uint64) uint64 {
	key := c.Key()
	for s := 0; s < len(steps); s += 3 {
		key = columnar.MixKeys(key, steps[s], steps[s+1], steps[s+2])
	}
	return key
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

// joinMatch is a join's match list: pair i joins probe place probeRows[i]
// — a place in the probe's row list — with build row buildRows[i], pairs
// in probe order and a probe place's matches in ascending build-row
// order.
type joinMatch struct {
	probeRows, buildRows []int32
	// identity: every probe place matched exactly once, so probeRows would
	// be every place in order and is left nil — the probe side's lists
	// are the output's.
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
			for r := first[i]; r >= 0; r = idx.Next(r) {
				if keep == nil || keep.Get(int(r)) {
					m.probeRows[pos] = int32(i)
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
