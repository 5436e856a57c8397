package engine

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
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
// from in its provenance key, filterSide a filter's list.
const (
	probeSide  uint64 = 1
	buildSide  uint64 = 2
	filterSide uint64 = 3
)

// sqlOrderOnly, when set, runs every chain in SQL order. Tests hold the
// answers of reordered chains to it.
var sqlOrderOnly bool

// link is one join of a chain and, once starOrder has evaluated its
// predicate, the joined table's rows the predicate keeps (nil until then).
type link struct {
	n    *plan.Join
	kept []int32
}

// joined is one join's output, computed but not yet charged: the frame's
// new parts, and what the join's operator row and span record.
type joined struct {
	parts   []part
	t       vtime.Duration
	table   string
	detail  string
	kept    int // the joined table's rows the predicate kept; -1 without one
	skipped int // probe rows the key-range filter skipped; -1 when it did not run
	dimCols int // the joined table's columns the output hands on
}

// stepFailed is a join that failed after it started work: unlike a join
// rejected by its checks, it leaves a span ending in the error.
type stepFailed struct{ err error }

func (s *stepFailed) Error() string { return s.err.Error() }
func (s *stepFailed) Unwrap() error { return s.err }

// execJoin runs a chain of joins: n and the joins under it, down to the
// first input that is not a join, the chain's bottom. The bottom runs
// first, then the joins in the order starOrder picks, one joinStep a
// position. Operator rows and spans are in the order that ran, and a
// position keeps its plan depth. A reordered chain is computed before
// anything is charged and kept only when runChain confirms it; otherwise,
// and when nothing moves, the joins run in SQL order. When the joins
// belong to the group-by's fused chain, placeJoins prepares the chain once
// the bottom has run, and a chain that probes on the device settles the
// joins' charge after its attempt (chargeJoins).
func (e *Engine) execJoin(n *plan.Join, q qctx) (*frame, error) {
	var links []*link
	var bottom plan.Node = n
	for j, ok := bottom.(*plan.Join); ok; j, ok = bottom.(*plan.Join) {
		links = append(links, &link{n: j})
		bottom = j.Left
	}
	slices.Reverse(links)
	bq := q
	bq.depth += len(links)
	f, err := e.execInput(bottom, bq)
	if err != nil {
		return nil, err
	}
	cr := q.chain
	if cr.member(n) {
		e.placeJoins(cr, f, links)
	} else {
		cr = nil
	}
	if order, moved := e.starOrder(f, links); order != nil && !sqlOrderOnly {
		if steps, err := e.runChain(f, links, order, moved); err == nil && steps != nil {
			e.chargeJoins(f, steps, len(links), q, cr)
			return f, nil
		}
	}
	order := make([]int, len(links))
	for i := range order {
		order[i] = i
	}
	steps, err := e.runChain(f, links, order, nil)
	e.chargeJoins(f, steps, len(links), q, cr)
	if err != nil {
		var failed *stepFailed
		if errors.As(err, &failed) {
			return f.open("join", q.depth).fail(failed.err)
		}
		return nil, err
	}
	return f, nil
}

// starOrder picks the order of a chain's joins over its bottom f, as link
// indices, bottom first: each run of joins that may move is sorted by the
// fraction of its joined table that its predicate keeps, ascending, joins
// without a predicate last, ties in SQL order; every other join keeps its
// place. A join may move when it probes with a column of the bottom, its
// joined table's key is unique, and no column name of its table is one
// the bottom or another table of the chain has — so it reads the same key
// and hands on the same columns at any position (a snowflake link, keyed
// by an earlier dimension's column, stays where it is). The predicates of
// a run that could move are evaluated here, once. moved holds the
// position ranges [lo, hi) of the runs that are not in SQL order. The
// order is nil when the chain runs in SQL order: SELECT *, where every
// column is the output, and a chain without a predicate always do.
func (e *Engine) starOrder(f *frame, links []*link) (order []int, moved [][2]int) {
	if len(links) < 2 || links[len(links)-1].n.Needed == nil ||
		!slices.ContainsFunc(links, func(l *link) bool { return l.n.Pred != nil }) {
		return nil, nil
	}
	movable := func(i int) bool {
		s, err := e.joinSides(f, links[i].n)
		if err != nil {
			return false
		}
		for _, c := range s.right.Columns() {
			if c.Name() == s.lcol && s.lcol == s.rcol {
				continue
			}
			if f.hasColumn(c.Name()) {
				return false
			}
			for j, o := range links {
				if t := e.tables[o.n.Table]; j != i && t != nil && t.Column(c.Name()) != nil {
					return false
				}
			}
		}
		return s.rk.KeyIndex().Unique()
	}
	order = make([]int, len(links))
	for i := range order {
		order[i] = i
	}
	for lo := 0; lo < len(links); {
		hi := lo + 1
		if movable(lo) {
			for hi < len(links) && movable(hi) {
				hi++
			}
		}
		run := order[lo:hi]
		if len(run) > 1 && e.evalPreds(links, run) {
			slices.SortStableFunc(run, func(a, b int) int { return keptOrder(e, links[a], links[b]) })
			if !slices.IsSorted(run) {
				moved = append(moved, [2]int{lo, hi})
			}
		}
		lo = hi
	}
	if moved == nil {
		return nil, nil
	}
	return order, moved
}

// evalPreds evaluates the predicates of the links at idx over their joined
// tables, reporting false when one fails (the join then reports the error
// when it runs, in SQL order).
func (e *Engine) evalPreds(links []*link, idx []int) bool {
	for _, i := range idx {
		l := links[i]
		if l.n.Pred == nil || l.kept != nil {
			continue
		}
		right := e.tables[l.n.Table]
		if _, err := l.n.Pred.TypeOf(right); err != nil {
			return false
		}
		kept, err := expr.EvalPredicate(right, l.n.Pred, e.cfg.Degree)
		if err != nil {
			return false
		}
		l.kept = kept
	}
	return true
}

// keptOrder orders two joins by the fraction of its joined table each
// keeps, ascending, a join without a predicate after every join with one.
func keptOrder(e *Engine, a, b *link) int {
	switch {
	case a.n.Pred == nil && b.n.Pred == nil:
		return 0
	case a.n.Pred == nil:
		return 1
	case b.n.Pred == nil:
		return -1
	}
	ra, rb := e.tables[a.n.Table].Rows(), e.tables[b.n.Table].Rows()
	return cmp.Compare(int64(len(a.kept))*int64(rb), int64(len(b.kept))*int64(ra))
}

// runChain computes a chain's joins over f's parts in the given order and
// charges nothing. Each join hands on the chain top's columns and the key
// columns of the joins still to run. A moved run is confirmed once it has
// run: each of its joined tables must have at most as many rows as its
// output. The rows reaching a join only shrink along a chain, so every
// join of the run then built at its position in this order and would
// have in SQL order too; a built join whose key is unique hands on its
// left rows in order, narrowed to those it matched, so the run's output
// is its input's rows in their order, narrowed to those every join
// matched, whichever order they ran in. runChain returns nil steps when a
// moved run is not confirmed, and on an error the steps before it.
func (e *Engine) runChain(f *frame, links []*link, order []int, moved [][2]int) ([]joined, error) {
	top := links[len(links)-1].n.Needed
	cur := *f
	steps := make([]joined, 0, len(links))
	for p, i := range order {
		if err := f.q.err(); err != nil {
			return steps, fmt.Errorf("engine: query canceled: %w", err)
		}
		var wanted func(string) bool
		if top != nil {
			rest := order[p+1:]
			wanted = func(name string) bool {
				if slices.Contains(top, name) {
					return true
				}
				for _, r := range rest {
					if n := links[r].n; n.LeftCol == name || n.RightCol == name {
						return true
					}
				}
				return false
			}
		}
		st, err := e.joinStep(&cur, links[i], wanted)
		if err != nil {
			return steps, err
		}
		cur.parts = st.parts
		steps = append(steps, st)
		for _, r := range moved {
			if r[1] != p+1 {
				continue
			}
			for _, j := range order[r[0]:r[1]] {
				if e.tables[links[j].n.Table].Rows() > cur.Len() {
					return nil, nil
				}
			}
		}
	}
	return steps, nil
}

// chargeJoins records computed joins on f in the order they ran: each its
// span, modeled charge and operator row, the first at the depth of the
// bottom-most of the chain's n joins. cr is the fused chain the joins
// belong to, nil when they belong to none. A chain that probes on the
// device takes each join as a fused_join stage instead of charging it
// here (settle): the row is then empty, and the chain's attempt settles
// the charge.
func (e *Engine) chargeJoins(f *frame, steps []joined, n int, q qctx, cr *chainRec) {
	if cr != nil {
		cr.settle(e.model, f.Len(), steps)
	}
	for p, st := range steps {
		row := f.open("join", q.depth+n-1-p)
		f.parts = st.parts
		rows := f.Len()
		if cr == nil || !cr.deviceJoins {
			e.addCPU(f, st.t)
		}
		attrs := []trace.Attr{trace.Str("table", st.table), trace.Int("rows", int64(rows))}
		if st.kept >= 0 {
			attrs = append(attrs, trace.Int("kept", int64(st.kept)))
		}
		if st.skipped >= 0 {
			attrs = append(attrs, trace.Int("skipped", int64(st.skipped)))
		}
		row.close(rows, st.detail, attrs...)
	}
}

// joinStep computes one join over left's parts — an inner equi-join on
// one integer key — and charges nothing; wanted names the columns the
// output hands on (nil: every column). The smaller side — by logical row
// count — is the build side and supplies its key column's index (resident
// on the column, so a base-table dimension builds once per process); the
// larger side probes it count-then-fill. The join copies no values. The
// left key is read through its part's list; each left part's list is
// composed with the match, or left alone when every left row matched
// exactly once, in order; the joined table becomes a part of its own whose
// list is its side of the match. A join predicate is evaluated once over
// the joined base table (by starOrder, or here): the probe skips the build
// rows it rejects — and, where rangePays, turns away a probe key outside
// the kept keys' range before looking it up — or, when the joined table
// probes, reads only the rows it keeps. Output rows are in probe order, a
// probe row's matches in ascending build-row order.
func (e *Engine) joinStep(left *frame, l *link, wanted func(string) bool) (joined, error) {
	n := l.n
	// Everything that can reject the join is checked before any work is
	// done on its behalf.
	s, err := e.joinSides(left, n)
	if err != nil {
		return joined{}, err
	}
	right, lcol, rcol, lk, rk, lpart := s.right, s.lcol, s.rcol, s.lk, s.rk, s.lpart
	// The output is both sides restricted to the columns read above the
	// join (late materialization): the left parts narrowed, the joined
	// table's columns as a new part. Column names must stay unique.
	if wanted == nil {
		wanted = func(string) bool { return true }
	}
	for _, c := range right.Columns() {
		if left.hasColumn(c.Name()) && c.Name() != rcol && c.Name() != lcol {
			return joined{}, fmt.Errorf("engine: duplicate column %q across join of %s", c.Name(), n.Table)
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

	q := left.q
	hostStart := time.Now()

	// A side's identity in its copied columns' provenance keys: the key a
	// copy of its key column would carry — the left's provenance, a filter
	// under it included — and the joined table's build identity. The
	// sides fix the match when the left key's part is keyed.
	leftID, rightID := provenanceKey(lk, left.parts[lpart].steps), s.build
	keyed := left.parts[lpart].keyed()
	lrows := left.parts[lpart].rows
	var kept []int32 // the joined table's rows the predicate keeps; nil: every row
	var predT vtime.Duration
	if n.Pred != nil {
		if kept = l.kept; kept == nil {
			if kept, err = expr.EvalPredicate(right, n.Pred, e.cfg.Degree); err != nil {
				return joined{}, &stepFailed{err}
			}
		}
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
	var rng *keyRange // the kept keys' range, when the probe tests it first
	if buildRight {
		var keep *columnar.Bitmap
		if kept != nil {
			keep = columnar.NewBitmap(right.Rows())
			kr := keyRange{lo: math.MaxInt64, hi: math.MinInt64}
			keys, nulls := rk.Data(), rk.Nulls()
			for _, r := range kept {
				keep.Set(int(r))
				if nulls == nil || !nulls.Get(int(r)) {
					kr.lo, kr.hi = min(kr.lo, keys[r]), max(kr.hi, keys[r])
				}
			}
			if e.rangePays(left.parts[lpart], lcol, lk, kr) {
				rng = &kr
			}
		}
		m, err = probeJoin(rk.KeyIndex(), lk, lrows, keep, rng, e.cfg.Degree)
		if !m.identity {
			leftPos = m.probeRows
		}
		rightRows = m.buildRows
		buildN, probeN = right.Rows(), leftN
	} else {
		// The left builds: its key column read through its list, a
		// per-query index whose rows are left places.
		m, err = probeJoin(lk.KeyIndexOf(lrows), rk, kept, nil, nil, e.cfg.Degree)
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
		return joined{}, &stepFailed{err}
	}
	q.wallHost(hostStart)

	// Record each keyed part's provenance and compose the left lists: the
	// step a copy through its list mixes into its source column's key,
	// with the two sides' identities, which fix the rows. A left part
	// takes the step when the join lists it, or when its last step is a
	// filter's; one a join listed before keeps its key through a join
	// that matches every row once, in order, since its columns come out
	// as they went in. A part no key fixes (a sort's or a limit's list)
	// takes no step, and its copies are keyed by content.
	composeStart := time.Now()
	leftSide, rightSide := probeSide, buildSide
	probeID, buildID := leftID, rightID
	if !buildRight {
		leftSide, rightSide = rightSide, leftSide
		probeID, buildID = buildID, probeID
	}
	step := func(steps []uint64, side uint64) []uint64 {
		return append(steps[:len(steps):len(steps)], side, probeID, buildID)
	}
	for i := range parts {
		if p := &parts[i]; keyed && p.keyed() && (leftPos != nil || p.filtered()) {
			p.steps = step(p.steps, leftSide)
		}
	}
	if leftPos != nil {
		composed += composeParts(parts, leftPos, e.cfg.Degree)
	}
	if rightTbl != nil {
		rp := part{tbl: rightTbl, rows: rightRows}
		if keyed && rightRows != nil {
			rp.steps = step(nil, rightSide)
		}
		parts = append(parts, rp)
	}
	q.wallGather(composeStart)

	// With the range filter, every probe row is a scan and a predicate
	// over its key, as is computing the range over the kept rows, and
	// only the rows inside the range are hash probes.
	probeT := e.model.CPUTime(float64(probeN), e.model.CPUHashProbeRate, e.cfg.Degree)
	if rng != nil {
		probeT = e.model.CPUTime(float64(len(kept)+probeN), e.model.CPUScanRate, e.cfg.Degree) +
			e.model.CPUTime(float64(probeN-m.skipped), e.model.CPUHashProbeRate, e.cfg.Degree)
	}
	st := joined{
		parts: parts, table: n.Table, kept: -1, skipped: -1,
		t: predT +
			e.model.CPUTime(float64(buildN), e.model.CPUHashBuildRate, e.cfg.Degree) +
			probeT +
			e.model.CPUTime(float64(composed), e.model.CPUScanRate, e.cfg.Degree),
	}
	// The detail is appended into one buffer: fmt would box each integer.
	d := appendAll(make([]byte, 0, 160), n.Table, " on ", lcol, "=", rcol)
	if n.Pred != nil {
		d = appendOf(appendAll(d, " where ", n.Pred.String(), " kept "), len(kept), right.Rows())
		st.kept = len(kept)
	}
	if rng != nil {
		d = strconv.AppendInt(append(d, " range ["...), rng.lo, 10)
		d = strconv.AppendInt(append(d, ", "...), rng.hi, 10)
		d = appendOf(append(d, "] skipped "...), m.skipped, probeN)
		st.skipped = m.skipped
	}
	st.detail = string(d)
	if rightTbl != nil {
		st.dimCols = rightTbl.NumColumns()
	}
	return st, nil
}

// appendAll appends each of ss to d.
func appendAll(d []byte, ss ...string) []byte {
	for _, s := range ss {
		d = append(d, s...)
	}
	return d
}

// appendOf appends "part of whole".
func appendOf(d []byte, part, whole int) []byte {
	d = append(strconv.AppendInt(d, int64(part), 10), " of "...)
	return strconv.AppendInt(d, int64(whole), 10)
}

// keyRange is the span [lo, hi] of the keys a masked build side keeps, lo
// > hi when it keeps no non-NULL key: a probe key outside it, or a NULL
// one, has no kept match.
type keyRange struct{ lo, hi int64 }

// bounds returns the range's ends, every int64 for a nil range.
func (r *keyRange) bounds() (lo, hi int64) {
	if r == nil {
		return math.MinInt64, math.MaxInt64
	}
	return r.lo, r.hi
}

// rangePays reports whether testing the probe key against the kept keys'
// range before the hash lookup is predicted to cost less than looking
// every key up. The test costs every probe row a scan (CPUScanRate) and
// saves the lookup (CPUHashProbeRate) of each row outside the range, so
// it pays when the outside share is above CPUHashProbeRate/CPUScanRate.
// The share is predicted from what is known before the probe: the probe
// column's analyzed [MinI, MaxI], taken as evenly filled, against the
// kept range. A probe part that is not a base table's column has no
// statistics, and the filter is not used.
func (e *Engine) rangePays(probe part, col string, key *columnar.Int64Column, kr keyRange) bool {
	ts := e.stats[probe.tbl.Name()]
	if base := e.tables[probe.tbl.Name()]; ts == nil || base == nil || base.Column(col) != columnar.Column(key) {
		return false
	}
	cs := ts.Columns[col]
	span := float64(cs.MaxI) - float64(cs.MinI) + 1
	inside := min(float64(kr.hi), float64(cs.MaxI)) - max(float64(kr.lo), float64(cs.MinI)) + 1
	return 1-max(inside, 0)/span > e.model.CPUHashProbeRate/e.model.CPUScanRate
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

// sides is a join resolved to its sides.
type sides struct {
	right      *columnar.Table // the joined table
	lcol, rcol string          // the left's key column, the joined table's
	lk, rk     *columnar.Int64Column
	lpart      int    // the left part that holds lk
	build      uint64 // the build's identity: rk's key, and the predicate's
}

// joinSides resolves which of n's condition columns is left's and which
// its joined table's — the left's is the one left has, the written order
// when it has neither — checks that both are integer keys and that the
// predicate types over the joined table, and keys the build: the rows it
// keeps, fixed by rk's key mixed with the predicate's (predKey). joinStep,
// starOrder and placeJoins resolve every join through it, over what the
// join reads as far as they know it, so they agree on a join's sides.
func (e *Engine) joinSides(left *frame, n *plan.Join) (sides, error) {
	right := e.tables[n.Table]
	if right == nil {
		return sides{}, fmt.Errorf("engine: unknown join table %q", n.Table)
	}
	lcol, rcol := n.LeftCol, n.RightCol
	if !left.hasColumn(lcol) && left.hasColumn(rcol) {
		lcol, rcol = rcol, lcol
	}
	lc, lpart := left.find(lcol)
	if lc == nil || right.Column(rcol) == nil {
		return sides{}, fmt.Errorf("engine: join condition %s=%s references unknown columns", n.LeftCol, n.RightCol)
	}
	lk, ok := lc.(*columnar.Int64Column)
	if !ok {
		return sides{}, fmt.Errorf("engine: join column %q must be an integer key", lcol)
	}
	rk, ok := right.Column(rcol).(*columnar.Int64Column)
	if !ok {
		return sides{}, fmt.Errorf("engine: join column %q must be an integer key", rcol)
	}
	build := rk.Key()
	if n.Pred != nil {
		if _, err := n.Pred.TypeOf(right); err != nil {
			return sides{}, err
		}
		build = columnar.MixKeys(build, predKey(right, n.Pred))
	}
	return sides{right: right, lcol: lcol, rcol: rcol, lk: lk, rk: rk, lpart: lpart, build: build}, nil
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
	// skipped counts the probe rows not looked up: a NULL key or one
	// outside the key range.
	skipped int
}

// probeJoin probes idx with the non-NULL keys of probe at rows (nil: every
// row, in order), count-then-fill: each worker looks its 64-aligned range
// of the list up once, remembering every probe row's lowest match and
// counting the matches behind it; a prefix sum turns the counts into
// offsets; each worker then walks its rows' chains into the lists at its
// offset. A build row keep does not hold (nil holds every row) never
// matches. A NULL key, and with rng a key outside it, is not looked up,
// and the match's skipped counts those rows. The lists are allocated
// once, at exact size, name probe rows by their row in probe, not their
// place in rows, and are the same at every degree. On an identity match
// the remembered lowest matches are the build-side list and there is
// nothing to fill.
func probeJoin(idx *columnar.KeyIndex, probe *columnar.Int64Column, rows []int32, keep *columnar.Bitmap, rng *keyRange, degree int) (joinMatch, error) {
	n := probe.Len()
	if rows != nil {
		n = len(rows)
	}
	keys, nulls := probe.Data(), probe.Nulls()
	first := make([]int32, n)
	// Each worker's match count, then its skipped rows.
	workers := parallel.Workers(n, joinGrain, degree)
	offsets := make([]int64, 2*workers)
	klo, khi := rng.bounds()
	parallel.For(n, joinGrain, degree, func(lo, hi, worker int) {
		var c int64
		if rows == nil && keep == nil {
			// The unlisted, unmasked probe — every join with nothing
			// placed under it — without the per-row tests below,
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
		var skipped int64
		for i := lo; i < hi; i++ {
			row := i
			if rows != nil {
				row = int(rows[i])
			}
			r := int32(-1)
			if k := keys[row]; (nulls == nil || !nulls.Get(row)) && k >= klo && k <= khi {
				r = idx.First(k)
			} else {
				skipped++
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
		offsets[worker], offsets[workers+worker] = c, skipped
	})
	total, err := matchOffsets(offsets[:workers])
	if err != nil {
		return joinMatch{}, err
	}
	var skipped int64
	for _, s := range offsets[workers:] {
		skipped += s
	}
	if idx.Unique() && total == n {
		return joinMatch{buildRows: first, identity: true, skipped: int(skipped)}, nil
	}
	m := joinMatch{probeRows: make([]int32, total), buildRows: make([]int32, total), skipped: int(skipped)}
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
