package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
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

	// Lower plan aggregates to evaluator aggregates.
	var cols []evaluator.AggColumn
	items := make([]aggPlanItem, len(n.Aggs))
	for i, a := range n.Aggs {
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
			return nil, fmt.Errorf("engine: unknown aggregate %v", a.Func)
		}
		items[i] = item
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
// result table.
//
// Groups are emitted in canonical packed-key order. Hash-table scan
// order differs between the CPU chain, the three device kernels, and
// the partitioned merge, so without a canonical order the same query
// could return rows in different orders depending on which path ran —
// and a fault-induced CPU fallback would no longer be bit-identical to
// the GPU run. Sorting by key makes the output path-independent.
func (e *Engine) buildAggOutput(chain *evaluator.Result, in *groupby.Input, out *groupby.Result, items []aggPlanItem) (*columnar.Table, error) {
	groups := out.Groups
	perm := make([]int, groups)
	for i := range perm {
		perm[i] = i
	}
	if in.Wide() {
		sort.Slice(perm, func(a, b int) bool {
			return bytes.Compare(out.WideKeys[perm[a]], out.WideKeys[perm[b]]) < 0
		})
	} else {
		sort.Slice(perm, func(a, b int) bool { return out.Keys[perm[a]] < out.Keys[perm[b]] })
	}
	keyVal := func(g int, fi int) columnar.Value {
		if in.Wide() {
			return evaluator.DecodeWideKey(out.WideKeys[g], chain.Fields[fi])
		}
		return evaluator.DecodeKey(out.Keys[g], chain.Fields[fi])
	}

	var tcols []columnar.Column
	for fi, field := range chain.Fields {
		// Key decode is per-group independent; the column builder pass in
		// ColumnFromValues stays sequential.
		vals := make([]columnar.Value, groups)
		parallel.For(groups, exprGrain, e.cfg.Degree, func(lo, hi, _ int) {
			for g := lo; g < hi; g++ {
				vals[g] = keyVal(perm[g], fi)
			}
		})
		col, err := columnar.ColumnFromValues(field.Column, field.Type, vals)
		if err != nil {
			return nil, err
		}
		tcols = append(tcols, col)
	}

	for _, item := range items {
		spec := in.Aggs[item.sumIdx]
		words := out.AggWords[item.sumIdx]
		switch {
		case item.fn == plan.AggAvg:
			counts := out.AggWords[item.countIdx]
			b := columnar.NewFloat64Builder(item.out)
			for g := 0; g < groups; g++ {
				c := counts[perm[g]]
				if c == 0 {
					b.AppendNull()
					continue
				}
				var sum float64
				if spec.Type == columnar.Float64 {
					sum = math.Float64frombits(words[perm[g]])
				} else {
					sum = float64(int64(words[perm[g]]))
				}
				b.Append(sum / float64(c))
			}
			tcols = append(tcols, b.Build())
		case spec.Type == columnar.Float64 && spec.Kind != groupby.Count:
			b := columnar.NewFloat64Builder(item.out)
			for g := 0; g < groups; g++ {
				v := math.Float64frombits(words[perm[g]])
				// MIN/MAX identity means every input was NULL.
				if (spec.Kind == groupby.Min && math.IsInf(v, 1)) ||
					(spec.Kind == groupby.Max && math.IsInf(v, -1)) {
					b.AppendNull()
					continue
				}
				b.Append(v)
			}
			tcols = append(tcols, b.Build())
		default:
			b := columnar.NewInt64Builder(item.out)
			for g := 0; g < groups; g++ {
				v := int64(words[perm[g]])
				if (spec.Kind == groupby.Min && v == math.MaxInt64) ||
					(spec.Kind == groupby.Max && v == math.MinInt64) {
					b.AppendNull()
					continue
				}
				b.Append(v)
			}
			tcols = append(tcols, b.Build())
		}
	}
	return columnar.NewTable("groupby", tcols...)
}
