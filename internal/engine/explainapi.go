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

// monTotals is a point-in-time snapshot of the monitor counters the
// explain report reconciles. Subtracting two snapshots taken around one
// query yields that query's Totals. Only valid for single-query use:
// concurrent queries on the same engine would interleave their deltas.
type monTotals struct {
	kernels       uint64
	transfers     uint64
	transferBytes int64
	retries       uint64
	placeRetries  uint64
	fallbacks     uint64
	faults        uint64
}

func (e *Engine) monTotals() monTotals {
	var t monTotals
	for _, k := range e.mon.Kernels() {
		t.kernels += k.Count
	}
	h2d, d2h := e.mon.Transfers()
	t.transfers = h2d.Count + d2h.Count
	t.transferBytes = h2d.Bytes + d2h.Bytes
	for _, r := range e.mon.Retries() {
		if r.Op == "place" {
			t.placeRetries += r.Count
		} else {
			t.retries += r.Count
		}
	}
	for _, fb := range e.mon.Fallbacks() {
		t.fallbacks += fb.Count
	}
	t.faults = e.mon.FaultTotal()
	return t
}

func (t monTotals) sub(o monTotals) explain.Totals {
	return explain.Totals{
		Kernels:       t.kernels - o.kernels,
		Transfers:     t.transfers - o.transfers,
		TransferBytes: t.transferBytes - o.transferBytes,
		Retries:       t.retries - o.retries,
		PlaceRetries:  t.placeRetries - o.placeRetries,
		Fallbacks:     t.fallbacks - o.fallbacks,
		Faults:        t.faults - o.faults,
	}
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
	before := e.monTotals()
	orphans0 := tr.Orphans()
	host0 := e.registry.Stats()
	e.registry.ResetWatermark()
	busy0 := make([]gpu.Utilization, len(e.devices))
	for i, d := range e.devices {
		busy0[i] = d.Util()
	}

	prognoses := e.prognoses(p.Root)
	res, err := e.executeWith(ctx, name, p, sql, &prognoses, attrs...)
	if err != nil {
		return nil, nil, err
	}
	seq := res.TraceSeq

	after := e.monTotals()
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
		Spans:      tr.QuerySpans(seq),
		Monitor:    after.sub(before),
		Host: explain.HostMemStats{
			WatermarkBytes: host1.Watermark,
			FreeSpans:      host1.FreeSpans,
			MaxFreeSpans:   host1.MaxFreeSpans,
			Allocs:         host1.Allocs - host0.Allocs,
			Fails:          host1.Fails - host0.Fails,
		},
		Busy:    busy,
		Orphans: tr.Orphans() - orphans0,
	})
	return rep, res, nil
}
