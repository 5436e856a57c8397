package engine

import (
	"context"
	"fmt"

	"blugpu/internal/explain"
	"blugpu/internal/gpu"
	"blugpu/internal/plan"
	"blugpu/internal/qlog"
	"blugpu/internal/trace"
)

// monitorColumns snapshots the monitor counters the explain report
// reconciles into the monitor columns of its ledger; monitorDelta
// subtracts an earlier snapshot, leaving the query's deltas. Only valid
// for single-query use: concurrent queries on the same engine would
// interleave their deltas.
func (e *Engine) monitorColumns() explain.TotalsReport {
	var t explain.TotalsReport
	for _, k := range e.mon.Kernels() {
		t.Kernels += k.Count
	}
	h2d, d2h := e.mon.Transfers()
	t.Transfers = h2d.Count + d2h.Count
	t.TransferBytes = h2d.Bytes + d2h.Bytes
	for _, r := range e.mon.Retries() {
		if r.Op == "place" {
			t.PlaceRetries += r.Count
		} else {
			t.Retries += r.Count
		}
	}
	for _, fb := range e.mon.Fallbacks() {
		t.Fallbacks += fb.Count
	}
	t.Faults = e.mon.FaultTotal()
	return t
}

func monitorDelta(t, o explain.TotalsReport) explain.TotalsReport {
	t.Kernels -= o.Kernels
	t.Transfers -= o.Transfers
	t.TransferBytes -= o.TransferBytes
	t.Retries -= o.Retries
	t.PlaceRetries -= o.PlaceRetries
	t.Fallbacks -= o.Fallbacks
	t.Faults -= o.Faults
	return t
}

// ExplainAnalyzeNamedCtx is QueryNamedCtxAttrs plus the decision audit:
// the plan-time prognosis next to what actually ran, reconciled against
// the span tree and the monitor counters. The audited epoch — monitor
// deltas, the hostmem watermark reset, the temporary tracer — is
// serialized on an engine-level mutex, so concurrent audits queue rather
// than corrupt each other's per-query deltas. Plain queries running
// concurrently still pollute the deltas; for an exact audit run it alone.
func (e *Engine) ExplainAnalyzeNamedCtx(ctx context.Context, name, sql string, attrs ...trace.Attr) (*explain.Report, *Result, error) {
	return e.run(ctx, name, sql, true, attrs)
}

// executeAudited is run's exec phase for an audit: the execution plus
// the report build, so both bill to exec and the query log and the prof
// accountant agree. Span attribution needs a tracer; when none is attached
// a temporary one is installed for the call. Caller holds e.explainMu.
func (e *Engine) executeAudited(ctx context.Context, name string, p *plan.Plan, sql string, attrs []trace.Attr) (*explain.Report, *Result, error) {
	tr := e.tracer.Load()
	if tr == nil {
		tr = trace.New()
		e.tracer.Store(tr)
		// Detach only our own: a tracer SetTracer attached while the
		// audit ran stays.
		defer e.tracer.CompareAndSwap(tr, nil)
	}
	before := e.monitorColumns()
	orphans0 := tr.Orphans()
	host0 := e.registry.Stats()
	e.registry.ResetWatermark()
	busy0 := make([]gpu.Utilization, len(e.devices))
	for i, d := range e.devices {
		busy0[i] = d.Util()
	}

	pr := e.prognosis(p.Root)
	res, err := e.executeWith(ctx, name, p, sql, attrs...)
	if err != nil {
		return nil, nil, err
	}
	seq := res.TraceSeq

	monitor := monitorDelta(e.monitorColumns(), before)
	host1 := e.registry.Stats()
	busy := make([]explain.DeviceBusy, len(e.devices))
	for i, d := range e.devices {
		u := d.Util()
		busy[i] = explain.DeviceBusy{
			Device: d.ID(),
			Kernel: u.Kernel - busy0[i].Kernel,
			H2D:    u.H2D - busy0[i].H2D,
			D2H:    u.D2H - busy0[i].D2H,
		}
	}
	if name == "" {
		// Mirror the tracer's automatic root-span naming.
		name = fmt.Sprintf("q%d", seq)
	}
	rep := explain.Build(explain.Input{
		Query:      name,
		RequestID:  qlog.RequestIDFrom(ctx),
		SQL:        sql,
		Plan:       fmt.Sprintf("%s", p.Root),
		GPUEnabled: e.GPUEnabled(),
		Thresholds: e.thresholds,
		Modeled:    res.Modeled,
		Rows:       res.Table.Rows(),
		Ops:        res.Ops,
		Prognosis:  pr,
		Spans:      tr.QuerySpans(seq),
		Monitor:    monitor,
		Host: explain.MemoryReport{
			HostWatermarkBytes: host1.Watermark,
			HostFreeSpans:      host1.FreeSpans,
			HostMaxFreeSpans:   host1.MaxFreeSpans,
			HostAllocs:         host1.Allocs - host0.Allocs,
			HostAllocFails:     host1.Fails - host0.Fails,
		},
		Busy:    busy,
		Orphans: tr.Orphans() - orphans0,
	})
	return rep, res, nil
}
