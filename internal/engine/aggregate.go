package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"blugpu/internal/bsort"
	"blugpu/internal/columnar"
	"blugpu/internal/evaluator"
	"blugpu/internal/explain"
	"blugpu/internal/gpu"
	"blugpu/internal/groupby"
	"blugpu/internal/optimizer"
	"blugpu/internal/parallel"
	"blugpu/internal/plan"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// aggPlanItem maps one plan aggregate to kernel aggregates. AVG expands
// into a SUM and a COUNT whose quotient is finalized on the host.
type aggPlanItem struct {
	out      string
	fn       plan.AggFunc
	sumIdx   int // kernel aggregate index (SUM/MIN/MAX, or AVG's SUM)
	countIdx int // AVG's COUNT index, -1 otherwise
}

// lowerAggs lowers plan aggregates to evaluator aggregates.
func lowerAggs(aggs []plan.AggItem) ([]evaluator.AggColumn, []aggPlanItem, error) {
	var cols []evaluator.AggColumn
	items := make([]aggPlanItem, len(aggs))
	for i, a := range aggs {
		item := aggPlanItem{out: a.Out, fn: a.Func, countIdx: -1}
		switch a.Func {
		case plan.AggSum:
			item.sumIdx = len(cols)
			cols = append(cols, evaluator.AggColumn{Kind: groupby.Sum, Column: a.Column})
		case plan.AggCount:
			item.sumIdx = len(cols)
			cols = append(cols, evaluator.AggColumn{Kind: groupby.Count, Column: a.Column})
		case plan.AggMin:
			item.sumIdx = len(cols)
			cols = append(cols, evaluator.AggColumn{Kind: groupby.Min, Column: a.Column})
		case plan.AggMax:
			item.sumIdx = len(cols)
			cols = append(cols, evaluator.AggColumn{Kind: groupby.Max, Column: a.Column})
		case plan.AggAvg:
			item.sumIdx = len(cols)
			cols = append(cols, evaluator.AggColumn{Kind: groupby.Sum, Column: a.Column})
			item.countIdx = len(cols)
			cols = append(cols, evaluator.AggColumn{Kind: groupby.Count, Column: a.Column})
		default:
			return nil, nil, fmt.Errorf("engine: unknown aggregate %v", a.Func)
		}
		items[i] = item
	}
	return cols, items, nil
}

// estimate is Figure 3's one estimate for the group-by n, lowered to
// aggs, over rows input rows: EXPLAIN's prognosis passes the plan-time
// count, the runtime decision the exact one. Groups are the product of
// each key's NDV, read from the statistics of the table that owns its
// column, capped at rows; the memory demand is bounded from those groups.
// It reads no row, so the decision is made before the key evaluators run.
func (e *Engine) estimate(n *plan.Aggregate, aggs []evaluator.AggColumn, rows int64) optimizer.Estimate {
	var buf [4]*optimizer.ColumnStats
	keys := buf[:0]
	for _, k := range n.Keys {
		keys = append(keys, e.keyStats(n.Input, k))
	}
	payloads := 0
	for _, a := range aggs {
		if a.Column != "" {
			payloads++
		}
	}
	groups := int64(optimizer.EstimateGroups(keys, rows))
	return optimizer.Estimate{
		Rows:         rows,
		Groups:       groups,
		MemoryDemand: groupby.DemandBound(max(rows, 0), groups, optimizer.KeyBits(keys), len(keys), len(aggs), payloads),
	}
}

// decide is Figure 3's decision for the group-by n, lowered to aggs, over
// rows input rows — or the one the fused chain cr made before the joins
// it spans ran.
func (e *Engine) decide(n *plan.Aggregate, aggs []evaluator.AggColumn, rows int64, cr *chainRec) (optimizer.Estimate, optimizer.Decision, optimizer.Reason) {
	if cr != nil && cr.decided {
		return cr.est, cr.decision, cr.reason
	}
	est := e.estimate(n, aggs, rows)
	decision, reason := optimizer.Decide(est, e.thresholds, e.maxDeviceMem())
	return est, decision, reason
}

// keyStats finds the statistics of the column col as the plan below
// reads it: those of the first joined or scanned table down the spine
// that owns it, nil when none does (a derived column).
func (e *Engine) keyStats(n plan.Node, col string) *optimizer.ColumnStats {
	for cur := n; cur != nil; cur = plan.Input(cur) {
		var table string
		switch x := cur.(type) {
		case *plan.Join:
			table = x.Table
		case *plan.Scan:
			table = x.Table
		}
		if ts := e.stats[table]; ts != nil && ts.Columns[col] != nil {
			return ts.Columns[col]
		}
	}
	return nil
}

func (e *Engine) execAggregate(n *plan.Aggregate, q qctx) (*frame, error) {
	// Fusion planning happens before the descent: the chain record rides
	// the query context so the filter/derive hooks can capture the entry
	// table and stage shapes as the host operators execute.
	cols, items, err := lowerAggs(n.Aggs)
	if err != nil {
		return nil, err
	}
	qq := q.deeper()
	var cr *chainRec
	if e.fcache != nil && e.GPUEnabled() {
		cr = planFusedChain(n)
		cr.aggs = cols
		qq.chain = cr
	}
	f, err := e.execInput(n.Input, qq)
	if err != nil {
		return nil, err
	}
	row := f.open("groupby", q.depth)
	if cr != nil {
		// A chain with no filter/derive stage has the aggregate's direct
		// input as its entry, keyed where it lives (a staged chain's
		// deepest member keyed its own); for joins run on the host, that is
		// their output. A miss's fill is charged the gather into the pinned
		// segment, so nothing is copied or charged here.
		e.entryKeys(cr, f)
	}

	// Figure 3 decides once, before the evaluator chain runs, on the exact
	// input row count and the group count and memory demand estimated from
	// table statistics: small (<= T1), few-group (<= T2), oversized (> T3)
	// and memory-gated group-bys take the original Figure-1 CPU chain with
	// no MEMCPY evaluator. Everything else runs the Figure-2 GPU chain,
	// which stages into pinned memory as it goes. The KMV sketch the chain
	// builds only sizes the device's hash table. A chain that spans the
	// joins below was decided before they ran, on the pre-join estimate
	// (placeJoins).
	rows := int64(f.Len())
	est, decision, reason := e.decide(n, cols, rows, cr)

	// Host evaluator chain: LCOG/LCOV/CCAT/HASH(+KMV)[+MEMCPY], reading
	// each column through its part's row list; charged below.
	hostStart := time.Now()
	chain, err := evaluator.BuildInput(f, evaluator.Spec{Keys: n.Keys, Aggs: cols}, evaluator.Deps{
		Model:    e.model,
		Degree:   e.cfg.Degree,
		Registry: e.registry,
		Stage:    decision == optimizer.UseGPU,
	})
	if err != nil {
		return row.fail(err)
	}
	if chain.Staged != nil {
		defer chain.Staged.Release()
	}
	q.wallHost(hostStart)

	in := chain.Input
	demand := groupby.MemoryDemand(in)

	// The chain is charged by the path that reads its output. A group-by
	// that may fuse is charged LCOV only once the CPU or the staged path
	// runs, and MEMCPY only once the staged path does: fused_pack loads and
	// packs the payloads on the device. Its keys go where its entry's
	// columns are. When they are all resident on the device the chain
	// prefers, fused_pack builds the keys there too, and a path that leaves
	// the chain is charged them first. Otherwise the entry must fill, and
	// the key evaluators are charged now, the host work its fills run
	// beside: the keys, and for a join entry everything charged since its
	// images existed (pin). Any other group-by is charged its whole
	// chain now: Figure 1's, or Figure 2's, which stages as it goes.
	charge := func(evals ...evaluator.Eval) vtime.Duration {
		d := evaluator.Charge(e.mon, row.sp, f.at(), evals...)
		e.addCPU(f, d)
		return d
	}
	mayFuse := decision == optimizer.UseGPU && cr != nil
	var keysT vtime.Duration
	deviceKeys := 0
	if mayFuse {
		e.pin(cr, chain.Keys(), f.modeled, in, demand)
		if cr.miss == 0 {
			deviceKeys = len(n.Keys)
		} else {
			keysT = charge(chain.Keys()...)
		}
	} else {
		charge(chain.Chain()...)
	}
	// leave charges a path that leaves the fused chain what it reads on the
	// host: the joins and the keys, unless the fill's window was charged
	// them, then evals.
	leave := func(evals ...evaluator.Eval) {
		if cr.deviceJoins {
			row.sp.Emit("op", "host-join", f.at(), cr.joinT, trace.Int("joins", int64(cr.joins)))
			e.addCPU(f, cr.joinT)
		}
		if deviceKeys > 0 {
			evals = append(chain.Keys(), evals...)
		}
		charge(evals...)
	}
	// Cancellation checked here (not in the GPU error path below): a
	// canceled query must abort, never be mistaken for a GPU fault that
	// triggers the Section 2.1.1 CPU fallback.
	if cerr := qq.err(); cerr != nil {
		return row.fail(fmt.Errorf("engine: query canceled: %w", cerr))
	}
	// Every effective path decision feeds the monitor, so the decision
	// breakdown (and the Prometheus counters built from it) covers every
	// query, not just the ones run under EXPLAIN ANALYZE.
	e.mon.RecordDecision(decision.String(), reason.String())

	var out *groupby.Result
	detail := ""
	fallbackCause := ""
	var ginfo gpuRunInfo
	var fx *fusedExec
	// The plan's top-k rides to both device paths: only k groups of an
	// ORDER BY ... LIMIT k above may leave the device.
	gopts := groupby.GPUOptions{Race: e.cfg.Race, Pinned: chain.Pinned, TopK: n.TopK}
	if decision == optimizer.UseGPU {
		// Try the fused chain first; it declines when it cannot improve on
		// the staged path, which then runs exactly as it would without
		// fusion. A fused chain that faults on every attempt skips the
		// staged path — it has already spilled, and Section 2.1.1's
		// discipline routes the query to the CPU.
		gpuStart := time.Now()
		var gerr error
		if mayFuse {
			out, fx, ginfo, gerr = e.runAggregateFused(cr, in, demand, gopts, deviceKeys, keysT, f, row.sp)
			if ginfo.declined {
				// The staged path reads the staged payloads.
				leave(chain.Loads()...)
				mayFuse = false
			}
		}
		if !mayFuse {
			ginfo, gerr = e.onDevice(row.sp, f.q.base, &f.modeled, devCall{
				op: "groupby", span: func(n int) string { return fmt.Sprintf("gpu-groupby attempt %d", n) }, demand: demand,
				run: func(res *gpu.Reservation) (_ []trace.Attr, err error) {
					out, err = groupby.RunGPU(in, e.cfg.Degree, res, e.model, gopts)
					if err != nil {
						return nil, err
					}
					e.addGPU(f, out.Stats.Modeled, demand)
					return []trace.Attr{trace.Str("kernel", out.Stats.Kernel)}, nil
				},
			})
		}
		q.wallGPU(gpuStart)
		if gerr != nil {
			// Device full, admission failed, or a GPU operation faulted:
			// Section 2.1.1's fallback. The query never sees the error.
			fallbackCause = gerr.Error()
			e.fallback("groupby", row.sp, gerr)
		} else if fx != nil {
			detail = fmt.Sprintf("gpu/fused/%s", out.Stats.Kernel)
		} else {
			detail = fmt.Sprintf("gpu/%s", out.Stats.Kernel)
		}
	}
	if out == nil {
		if mayFuse {
			// The fused attempt faulted: the CPU path reads LCOV's payloads.
			leave(chain.LCOV)
		}
		cpuAt := f.at()
		cpuStart := time.Now()
		out, err = groupby.RunCPU(in, e.cfg.Degree, e.model)
		if err != nil {
			return row.fail(err)
		}
		q.wallHost(cpuStart)
		e.addCPU(f, out.Stats.Modeled)
		row.sp.Emit("op", "cpu-groupby", cpuAt, out.Stats.Modeled,
			trace.Int("groups", int64(out.Groups)))
		detail = fmt.Sprintf("cpu (%s)", reason)
	}

	// Estimate accountability: with the actual group count in hand, the
	// KMV estimate that sized the device table gets its relative error
	// recorded.
	var relErr float64
	if in.EstGroups > 0 && out.Groups > 0 {
		relErr = math.Abs(float64(int64(in.EstGroups))-float64(out.Groups)) / float64(out.Groups)
		e.mon.RecordKMVError(relErr)
	}

	// Build the output table: decoded key columns + finalized aggregates.
	buildStart := time.Now()
	outTbl, err := e.buildAggOutput(chain, in, out, items)
	if err != nil {
		return row.fail(err)
	}
	f.setTable(outTbl)
	if k := out.Stats.Kept; k > 0 {
		// The device shipped only the first k groups of the ORDER BY
		// above. The host names the same k: TopK over the output's sort
		// keys, whose rows are in canonical key order, so the Sort above
		// orders exactly the rows it would have kept, ties included. No
		// key fixes the list: the part takes no step.
		words, offs, err := sortKeyWords(f, n.TopKeys, e.cfg.Degree)
		if err != nil {
			return row.fail(err)
		}
		f.parts[0].rows = bsort.TopK(bsort.NewFlatKeySource(words, out.Groups, offs[len(n.TopKeys)]), k, e.cfg.Degree)
	}
	q.wallHost(buildStart)
	e.addCPU(f, e.model.CPUTime(float64(f.Len()*len(items)), e.model.CPUExprRate, e.cfg.Degree))
	attrs := []trace.Attr{trace.Int("groups", int64(out.Groups)), trace.Str("path", detail)}
	if out.Stats.Kept > 0 {
		attrs = append(attrs, trace.Int("kept", int64(out.Stats.Kept)))
	}
	rec := &explain.GroupbyReport{
		Keys:          n.Keys,
		InputRows:     rows,
		EstRows:       cr.preJoinRows(),
		Groups:        est.Groups,
		EstGroups:     int64(in.EstGroups),
		ActualGroups:  int64(out.Groups),
		Kept:          int64(out.Stats.Kept),
		RelErr:        relErr,
		DemandBytes:   est.MemoryDemand,
		Decision:      decision.String(),
		Reason:        reason.String(),
		Path:          detail,
		Attempts:      ginfo.attempts,
		Retries:       ginfo.retries,
		FallbackCause: fallbackCause,
		Devices:       ginfo.devices,
	}
	if fx != nil {
		rec.Fused = true
		rec.FusedStages = len(cr.stages)
		rec.DeviceKeys = deviceKeys > 0
		rec.DeviceJoins = cr.joins
		rec.SavedBytes = fx.saved
		rec.UploadBytes = fx.uploaded
		rec.ChainHighWater = fx.highWater
	}
	row.close(f.Len(), detail, attrs...).Agg = rec
	return f, nil
}

// buildAggOutput decodes group keys and finalizes aggregates into the
// result table, a column at a time over typed vectors.
//
// Groups are emitted in canonical packed-key order. The aggregation
// loop's group order follows its partitions, and so the degree; sorting
// by key makes the output order independent of it, so ties under ORDER
// BY ... LIMIT break the same way at every degree. Narrow keys take a
// radix pass, wide keys keep a comparison sort (no workload statement
// groups by one); both decode from the sorted key words.
func (e *Engine) buildAggOutput(chain *evaluator.Result, in *groupby.Input, out *groupby.Result, items []aggPlanItem) (*columnar.Table, error) {
	groups, degree := out.Groups, e.cfg.Degree
	tcols := make([]columnar.Column, 0, len(chain.Fields)+len(items))
	kw := in.KeyWords()
	var sorted []uint64
	var perm []int32
	if in.Wide() {
		sorted, perm = wideOrder(out.Keys, kw, degree)
	} else {
		sorted, perm = radixOrder(out.Keys, in.KeyBits, degree)
	}
	for _, field := range chain.Fields {
		tcols = append(tcols, field.DecodeColumn(sorted, kw, degree))
	}

	for _, item := range items {
		spec := in.Aggs[item.sumIdx]
		words := out.AggWords[item.sumIdx]
		// A NULL aggregate is an AVG over no rows, or a MIN/MAX still at
		// its identity: every input was NULL.
		var nulls *columnar.Bitmap
		if item.fn == plan.AggAvg || spec.Kind == groupby.Min || spec.Kind == groupby.Max {
			nulls = columnar.NewBitmap(groups)
		}
		switch {
		case item.fn == plan.AggAvg:
			counts := out.AggWords[item.countIdx]
			data := make([]float64, groups)
			parallel.For(groups, exprGrain, degree, func(lo, hi, _ int) {
				for g := lo; g < hi; g++ {
					w, c := words[perm[g]], counts[perm[g]]
					switch {
					case c == 0:
						nulls.Set(g)
					case spec.Type == columnar.Float64:
						data[g] = math.Float64frombits(w) / float64(c)
					default:
						data[g] = float64(int64(w)) / float64(c)
					}
				}
			})
			tcols = append(tcols, columnar.NewFloat64Column(item.out, data, nulls.NilIfEmpty()))
		case spec.Type == columnar.Float64 && spec.Kind != groupby.Count:
			data := make([]float64, groups)
			parallel.For(groups, exprGrain, degree, func(lo, hi, _ int) {
				for g := lo; g < hi; g++ {
					v := math.Float64frombits(words[perm[g]])
					if (spec.Kind == groupby.Min && math.IsInf(v, 1)) ||
						(spec.Kind == groupby.Max && math.IsInf(v, -1)) {
						nulls.Set(g)
					} else {
						data[g] = v
					}
				}
			})
			tcols = append(tcols, columnar.NewFloat64Column(item.out, data, nulls.NilIfEmpty()))
		default:
			data := make([]int64, groups)
			parallel.For(groups, exprGrain, degree, func(lo, hi, _ int) {
				for g := lo; g < hi; g++ {
					v := int64(words[perm[g]])
					if (spec.Kind == groupby.Min && v == math.MaxInt64) ||
						(spec.Kind == groupby.Max && v == math.MinInt64) {
						nulls.Set(g)
					} else {
						data[g] = v
					}
				}
			})
			tcols = append(tcols, columnar.NewInt64Column(item.out, data, nulls.NilIfEmpty()))
		}
	}
	return columnar.NewTable("groupby", tcols...)
}

// radixOrder sorts the distinct packed keys ascending with an LSD radix
// pass per 8-bit digit of the keyBits they use (0 = unknown, all 64),
// carrying each key's group index: it returns the sorted keys and, for
// every output position, the group it came from. Keys are distinct, so
// this is exactly the order a comparison sort on the key would give. Each
// pass is bsort's parallel stable RadixPass; one that finds every key
// sharing its digit moves nothing.
func radixOrder(keys []uint64, keyBits, degree int) ([]uint64, []int32) {
	n := len(keys)
	if keyBits <= 0 || keyBits > 64 {
		keyBits = 64
	}
	sorted, perm := slices.Clone(keys), columnar.IotaRows(n, degree)
	if n < 2 {
		return sorted, perm
	}
	bufK, bufP := make([]uint64, n), make([]int32, n)
	for shift := uint(0); shift < uint(keyBits); shift += 8 {
		if _, moved := bsort.RadixPass(sorted, bufK, perm, bufP, shift, degree); moved {
			sorted, bufK, perm, bufP = bufK, sorted, bufP, perm
		}
	}
	return sorted, perm
}

// wideOrder sorts the distinct wide keys, kw words a key, in the order of
// their little-endian bytes: word by word, each word's bytes reversed so
// that it compares as a big-endian number. The padding bytes past KeyBytes
// are zero in every key and break no tie. It returns the sorted key words
// and, for every output position, the group it came from.
func wideOrder(keys []uint64, kw, degree int) ([]uint64, []int32) {
	perm := columnar.IotaRows(len(keys)/kw, degree)
	slices.SortFunc(perm, func(a, b int32) int {
		for j := 0; j < kw; j++ {
			if c := cmp.Compare(bits.ReverseBytes64(keys[int(a)*kw+j]), bits.ReverseBytes64(keys[int(b)*kw+j])); c != 0 {
				return c
			}
		}
		return 0
	})
	sorted := make([]uint64, len(keys))
	for i, g := range perm {
		copy(sorted[i*kw:(i+1)*kw], keys[int(g)*kw:])
	}
	return sorted, perm
}
