package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

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

func (e *Engine) execAggregate(n *plan.Aggregate, q qctx) (*frame, error) {
	// Fusion planning happens before the descent: the chain record rides
	// the query context so the filter/derive hooks can capture the entry
	// table and stage shapes as the host operators execute.
	qq := q.deeper()
	var cr *chainRec
	if e.fcache != nil && e.GPUEnabled() {
		cr = planFusedChain(n)
		qq.chain = cr
	}
	f, err := e.execInput(n.Input, qq)
	if err != nil {
		return nil, err
	}
	if cr != nil && cr.entry == nil {
		// Chain with no filter/derive stages: the aggregate's direct
		// input (scan or join output) is the entry table.
		cr.entry = f.tbl
	}
	start := f.at()
	op := f.begin("op", "groupby")

	cols, items, err := lowerAggs(n.Aggs)
	if err != nil {
		return nil, err
	}

	// Figure 3's first decision happens before the chain runs: the exact
	// input row count is known, so small (<= T1) and oversized (> T3)
	// queries take the original Figure-1 CPU chain with no MEMCPY
	// evaluator. Everything else runs the Figure-2 GPU chain, which
	// stages into pinned memory as it goes.
	rows := int64(f.tbl.Rows())
	preGPU := e.GPUEnabled() && rows > e.thresholds.T1Rows &&
		(e.thresholds.T3Rows <= 0 || rows <= e.thresholds.T3Rows)

	// Host evaluator chain: LCOG/LCOV/CCAT/HASH(+KMV)[+MEMCPY].
	hostStart := time.Now()
	chain, err := evaluator.BuildInput(f.tbl, nil, evaluator.Spec{Keys: n.Keys, Aggs: cols}, evaluator.Deps{
		Model:    e.model,
		Degree:   e.cfg.Degree,
		Monitor:  e.mon,
		Registry: e.registry,
		Stage:    preGPU,
		Trace:    op,
		TraceAt:  f.at(),
	})
	if err != nil {
		return nil, err
	}
	if chain.Staged != nil {
		defer chain.Staged.Release()
	}
	q.wallHost(hostStart)
	e.addCPU(f, chain.Modeled)
	// Cancellation checked here (not in the GPU error path below): a
	// canceled query must abort, never be mistaken for a GPU fault that
	// triggers the Section 2.1.1 CPU fallback.
	if cerr := qq.err(); cerr != nil {
		return nil, fmt.Errorf("engine: query canceled: %w", cerr)
	}

	in := chain.Input
	demand := groupby.MemoryDemand(in)
	// Second decision, now with the KMV group estimate and the exact
	// memory demand.
	decision, reason := optimizer.Decide(optimizer.Estimate{
		Rows:         rows,
		Groups:       int64(in.EstGroups),
		MemoryDemand: demand,
	}, e.thresholds, e.maxDeviceMem())
	if !preGPU {
		decision = optimizer.UseCPU
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
	if decision == optimizer.UseGPU {
		// Try the fused chain first; it declines (nil fusedExec, nil
		// error) when it cannot improve on the staged path, which then
		// runs exactly as it would without fusion. A fused fault skips
		// the staged retry — the chain has already spilled, and Section
		// 2.1.1's discipline routes the query to the CPU.
		gpuStart := time.Now()
		gout, info, fexec, gerr := e.runAggregateFused(cr, in, demand, chain.Pinned, chain.Modeled, f, op)
		fx = fexec
		if fexec == nil && gerr == nil {
			gout, info, gerr = e.runAggregateGPU(in, demand, chain.Pinned, f, op)
		}
		q.wallGPU(gpuStart)
		ginfo = info
		if gerr != nil {
			// Device full, admission failed, or a GPU operation faulted:
			// Section 2.1.1's fallback. The query never sees the error.
			fallbackCause = gerr.Error()
			e.mon.RecordFallback("groupby", errors.Is(gerr, gpu.ErrInjected))
			op.Annotate(trace.Str("fallback", gerr.Error()))
		} else {
			out = gout
			if fx != nil {
				detail = fmt.Sprintf("gpu/fused/%s", out.Stats.Kernel)
			} else {
				detail = fmt.Sprintf("gpu/%s", out.Stats.Kernel)
			}
		}
	}
	if out == nil {
		cpuAt := f.at()
		cpuStart := time.Now()
		out, err = groupby.RunCPU(in, e.cfg.Degree, e.model)
		if err != nil {
			return nil, err
		}
		q.wallHost(cpuStart)
		e.addCPU(f, out.Stats.Modeled)
		op.Emit("op", "cpu-groupby", cpuAt, out.Stats.Modeled,
			trace.Int("groups", int64(out.Groups)))
		detail = fmt.Sprintf("cpu (%s)", reason)
	}

	// Estimate accountability: with the actual group count in hand, the
	// KMV estimate the decision ran on gets its relative error recorded.
	var relErr float64
	if in.EstGroups > 0 && out.Groups > 0 {
		relErr = math.Abs(float64(int64(in.EstGroups))-float64(out.Groups)) / float64(out.Groups)
		e.mon.RecordKMVError(relErr)
	}

	// Build the output table: decoded key columns + finalized aggregates.
	buildStart := time.Now()
	outTbl, err := e.buildAggOutput(chain, in, out, items)
	if err != nil {
		return nil, err
	}
	q.wallHost(buildStart)
	finalize := e.model.CPUTime(float64(out.Groups*len(items)), e.model.CPUExprRate, e.cfg.Degree)
	e.addCPU(f, finalize)
	op.End(f.at(), trace.Int("groups", int64(out.Groups)), trace.Str("path", detail))
	f.tbl = outTbl
	rec := &explain.AggRecord{
		Keys:          n.Keys,
		Plan:          q.nextPrognosis(),
		InputRows:     rows,
		EstGroups:     int64(in.EstGroups),
		ActualGroups:  int64(out.Groups),
		RelErr:        relErr,
		MemoryDemand:  demand,
		Decision:      decision.String(),
		Reason:        reason.String(),
		Path:          detail,
		Attempts:      ginfo.attempts,
		Retries:       ginfo.retries,
		FallbackCause: fallbackCause,
		Devices:       ginfo.devices,
	}
	modeled := chain.Modeled + out.Stats.Modeled + finalize
	if fx != nil {
		// Fused chains charge cache fills and stage kernels beyond the
		// group-by's own Stats.Modeled; attribute them here so self times
		// still sum to the query total.
		modeled += fx.chainModeled
		rec.Fused = true
		rec.FusedStages = fx.stages
		rec.SavedBytes = fx.saved
		rec.UploadBytes = fx.uploaded
		rec.ChainHighWater = fx.highWater
	}
	f.ops = append(f.ops, OpStat{
		Op: "groupby", Detail: detail, Depth: q.depth, Rows: out.Groups,
		Span: op.ID(), Start: start, End: f.at(), Modeled: modeled,
		Agg: rec,
	})
	return f, nil
}

// maxGPUAttempts bounds the device attempts per group-by: the first try
// plus one retry on a different device. Exhausting the attempts routes
// the query to the CPU path (Section 2.1.1's fallback) — a query never
// fails because a GPU operation failed.
const maxGPUAttempts = 2

// gpuRetryBackoff is the modeled delay charged to a query before it
// retries a failed GPU operation on another device (doubling per
// attempt).
const gpuRetryBackoff = 100 * vtime.Microsecond

// gpuRunInfo summarizes a group-by's device attempts for its operator
// row: how many placements were tried, how many turned into
// cross-device retries, and which devices admitted the task.
type gpuRunInfo struct {
	attempts int
	retries  int
	devices  []int
}

// runAggregateGPU runs the device path through the scheduler, retrying
// once on a different device when an operation faults; sched.Run releases
// every attempt's reservation before any retry or fallback runs. Each
// attempt gets a span under the group-by operator's span op; the
// reservation is bound to it, so every kernel, transfer and injected
// fault of the attempt lands on that span in the trace.
func (e *Engine) runAggregateGPU(in *groupby.Input, demand int64, pinned bool, f *frame, op trace.Context) (*groupby.Result, gpuRunInfo, error) {
	var info gpuRunInfo
	if e.sched == nil {
		return nil, info, errors.New("engine: no devices")
	}
	var exclude map[int]bool
	backoff := gpuRetryBackoff
	var lastErr error
	for attempt := 0; attempt < maxGPUAttempts; attempt++ {
		info.attempts++
		g := op.Begin("gpu", fmt.Sprintf("gpu-groupby attempt %d", attempt+1), f.at())
		var out *groupby.Result
		dev, err := e.sched.Run(g, f.at(), demand, exclude, func(res *gpu.Reservation) (err error) {
			out, err = groupby.RunGPU(in, res, e.model, groupby.GPUOptions{
				Race:   e.cfg.Race,
				Pinned: pinned,
			})
			return err
		})
		if dev == nil {
			// Busy fleet or the remaining devices' reservations faulted:
			// waiting briefly is an option (Section 2.1.1); the prototype
			// falls back to the CPU instead.
			g.End(f.at(), trace.Str("error", err.Error()))
			return nil, info, err
		}
		info.devices = append(info.devices, dev.ID())
		if err == nil {
			// Sample device memory for the monitor at the query's
			// virtual-time offsets: the demand held for the kernel's
			// duration, then released.
			e.mon.RecordMemSample(dev.ID(), vtime.Time(f.modeled.Seconds()), demand, dev.TotalMemory())
			e.addGPU(f, out.Stats.Modeled, demand)
			e.mon.RecordMemSample(dev.ID(), vtime.Time(f.modeled.Seconds()), 0, dev.TotalMemory())
			g.End(f.at(), trace.Int("device", int64(dev.ID())),
				trace.Str("kernel", out.Stats.Kernel))
			return out, info, nil
		}
		g.End(f.at(), trace.Int("device", int64(dev.ID())), trace.Str("error", err.Error()))
		lastErr = err
		if attempt+1 < maxGPUAttempts {
			info.retries++
			e.mon.RecordGPURetry("groupby", errors.Is(err, gpu.ErrInjected))
			if exclude == nil {
				exclude = make(map[int]bool)
			}
			exclude[dev.ID()] = true
			// Backoff is modeled, like everything else in the simulation.
			op.Emit("gpu", "retry-backoff", f.at(), backoff, trace.Str("cause", err.Error()))
			f.modeled += backoff
			backoff *= 2
		}
	}
	return nil, info, lastErr
}

// buildAggOutput decodes group keys and finalizes aggregates into the
// result table, a column at a time over typed vectors.
//
// Groups are emitted in canonical packed-key order. Hash-table scan
// order differs between the CPU chain, the three device kernels, and
// the partitioned merge, so without a canonical order the same query
// could return rows in different orders depending on which path ran —
// and a fault-induced CPU fallback would no longer be bit-identical to
// the GPU run. Sorting by key makes the output path-independent. Narrow
// keys take a radix pass and decode from the sorted key vector; wide keys
// keep a comparison sort, no workload statement groups by one.
func (e *Engine) buildAggOutput(chain *evaluator.Result, in *groupby.Input, out *groupby.Result, items []aggPlanItem) (*columnar.Table, error) {
	groups, degree := out.Groups, e.cfg.Degree
	tcols := make([]columnar.Column, 0, len(chain.Fields)+len(items))
	var perm []int32
	if in.Wide() {
		perm = columnar.IotaRows(groups, degree)
		slices.SortFunc(perm, func(a, b int32) int { return bytes.Compare(out.WideKeys[a], out.WideKeys[b]) })
		for _, field := range chain.Fields {
			tcols = append(tcols, field.DecodeWideColumn(out.WideKeys, perm, degree))
		}
	} else {
		var sorted []uint64
		sorted, perm = radixOrder(out.Keys, in.KeyBits, degree)
		for _, field := range chain.Fields {
			tcols = append(tcols, field.DecodeColumn(sorted, degree))
		}
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
// this is exactly the order a comparison sort on the key would give.
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
		var next [256]int
		for _, k := range sorted {
			next[byte(k>>shift)]++
		}
		if next[byte(sorted[0]>>shift)] == n {
			continue // every key shares this digit
		}
		pos := 0
		for d, c := range next {
			next[d], pos = pos, pos+c
		}
		for i, k := range sorted {
			d := byte(k >> shift)
			bufK[next[d]], bufP[next[d]] = k, perm[i]
			next[d]++
		}
		sorted, bufK, perm, bufP = bufK, sorted, bufP, perm
	}
	return sorted, perm
}
