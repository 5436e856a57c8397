// Package engine is the public face of the hybrid CPU/GPU query engine —
// the reproduction's stand-in for DB2 BLU with the paper's GPU
// acceleration prototype wired in.
//
// An Engine owns a catalog of columnar tables, the pinned host-memory
// registry (registered once at startup, Section 2.1.2), a fleet of
// simulated GPUs behind the multi-GPU scheduler (Section 2.2), the
// integrated performance monitor (Section 2.3), and the optimizer
// thresholds driving Figure 3's CPU/GPU path selection. Query execution
// is functional — real results over real data — while elapsed time is
// modeled through the calibrated cost model, and every query also yields
// a resource Profile replayable by the concurrency simulator.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blugpu/internal/bsort"
	"blugpu/internal/columnar"
	"blugpu/internal/des"
	"blugpu/internal/explain"
	"blugpu/internal/fault"
	"blugpu/internal/fusion"
	"blugpu/internal/gpu"
	"blugpu/internal/hostmem"
	"blugpu/internal/monitor"
	"blugpu/internal/optimizer"
	"blugpu/internal/plan"
	"blugpu/internal/prof"
	"blugpu/internal/qlog"
	"blugpu/internal/sched"
	"blugpu/internal/sqlparse"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// pinnedBytes sizes the registered host segment.
const pinnedBytes = 512 << 20

// Config configures an Engine. The hardware cost model is
// vtime.Default() for every engine.
type Config struct {
	// Devices is the number of GPUs to attach (0 disables offload).
	Devices int
	// DeviceSpec describes each GPU; zero value uses the K40 spec.
	DeviceSpec vtime.GPUSpec
	// Degree is the default intra-query parallelism (default 24).
	Degree int
	// Thresholds are the Figure-3 knobs; zero value uses defaults.
	Thresholds optimizer.Thresholds
	// Race lets the GPU moderator charge a second eligible kernel — its
	// table claim, mask initialization and launch — and keep the lower
	// modeled time (Section 4.2). The answer is the same either way.
	Race bool
	// GPUSortThreshold is the minimum sort-job size for the device
	// (default bsort.DefaultGPUThreshold).
	GPUSortThreshold int
	// Faults optionally injects GPU faults at every device operation
	// site for robustness testing (see internal/fault). nil disables
	// injection. Whatever the injector does, queries never fail: every
	// GPU error routes to the CPU path.
	Faults *fault.Injector
	// Tracer, when set, records a span tree per query: plan operators,
	// scheduler placement, GPU attempts, per-job sorts, and every device
	// kernel/transfer/fault. nil disables tracing (the zero-cost default);
	// SetTracer can attach one later.
	Tracer *trace.Tracer
	// NoFusion disables the fused device pipeline (device-resident
	// intermediates; see internal/engine/fusion.go), restoring the
	// materialize-per-operator staged path for every group-by. The
	// benchmarks use it to produce fusion-off baselines.
	NoFusion bool
}

// Engine executes SQL over registered columnar tables.
type Engine struct {
	cfg        Config
	model      *vtime.CostModel
	mon        *monitor.Monitor
	registry   *hostmem.Registry
	sched      *sched.Scheduler // nil when no devices
	devices    []*gpu.Device
	tables     map[string]*columnar.Table
	stats      map[string]*optimizer.TableStats
	thresholds optimizer.Thresholds
	gpuEnabled bool
	// fcache is the device-resident column cache behind the fused data
	// path; nil when fusion is disabled (no devices or Config.NoFusion).
	fcache *fusion.Cache

	// tracer is swappable at runtime (blushell toggles it mid-session);
	// device sinks read it through the pointer on every event.
	tracer atomic.Pointer[trace.Tracer]
	// clockMu guards the engine's virtual clock, which lays consecutive
	// queries out sequentially on the trace timeline.
	clockMu sync.Mutex
	clock   vtime.Time
	// explainMu serializes ExplainAnalyze epochs: the hostmem watermark
	// reset, monitor counter deltas and temporary tracer are shared
	// engine state that concurrent audits would corrupt.
	explainMu sync.Mutex
}

// New builds an engine. The pinned segment is "registered" here, once,
// exactly as the paper registers host memory at engine start-up.
func New(cfg Config) (*Engine, error) {
	if cfg.Degree <= 0 {
		cfg.Degree = 24
	}
	if cfg.GPUSortThreshold <= 0 {
		cfg.GPUSortThreshold = bsort.DefaultGPUThreshold
	}
	if cfg.DeviceSpec.CUDACores == 0 {
		cfg.DeviceSpec = vtime.TeslaK40()
	}
	if cfg.Thresholds == (optimizer.Thresholds{}) {
		cfg.Thresholds = optimizer.DefaultThresholds()
	}
	e := &Engine{
		cfg:        cfg,
		model:      vtime.Default(),
		mon:        monitor.New(),
		tables:     make(map[string]*columnar.Table),
		stats:      make(map[string]*optimizer.TableStats),
		thresholds: cfg.Thresholds,
		gpuEnabled: cfg.Devices > 0,
	}
	reg, err := hostmem.NewRegistry(pinnedBytes)
	if err != nil {
		return nil, err
	}
	e.registry = reg
	e.tracer.Store(cfg.Tracer)
	if cfg.Devices > 0 {
		for i := 0; i < cfg.Devices; i++ {
			e.devices = append(e.devices, gpu.NewDevice(i, cfg.DeviceSpec,
				gpu.WithSink(engineSink{e}), gpu.WithModel(e.model), gpu.WithFaults(cfg.Faults)))
		}
		s, err := sched.New(e.devices...)
		if err != nil {
			return nil, err
		}
		s.SetSink(e.mon)
		e.sched = s
		if !cfg.NoFusion {
			e.fcache = fusion.NewCache(e.model, cfg.Degree)
		}
	}
	return e, nil
}

// Register adds a table to the catalog and analyzes its statistics.
func (e *Engine) Register(tbl *columnar.Table) error {
	if tbl == nil {
		return errors.New("engine: nil table")
	}
	if _, dup := e.tables[tbl.Name()]; dup {
		return fmt.Errorf("engine: table %q already registered", tbl.Name())
	}
	e.tables[tbl.Name()] = tbl
	e.stats[tbl.Name()] = optimizer.Analyze(tbl)
	return nil
}

// Table returns a registered table, or nil.
func (e *Engine) Table(name string) *columnar.Table { return e.tables[name] }

// TableNames lists registered tables.
func (e *Engine) TableNames() []string {
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	return out
}

// Stats returns a table's analyzed statistics, or nil.
func (e *Engine) Stats(name string) *optimizer.TableStats { return e.stats[name] }

// Monitor exposes the integrated performance monitor.
func (e *Engine) Monitor() *monitor.Monitor { return e.mon }

// Tracer returns the attached span tracer, or nil.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer.Load() }

// SetTracer attaches (or, with nil, detaches) a span tracer at runtime.
func (e *Engine) SetTracer(tr *trace.Tracer) { e.tracer.Store(tr) }

// engineSink fans device events out to the performance monitor and, when
// one is attached, the tracer. The indirection exists because gpu cannot
// import trace's consumers: the tracer learns about kernels, transfers
// and faults here, keyed by the span the device operation ran under.
type engineSink struct{ e *Engine }

func (s engineSink) RecordGPUEvent(ev gpu.Event) {
	s.e.mon.RecordGPUEvent(ev)
	if tr := s.e.tracer.Load(); tr != nil {
		tr.RecordDeviceEvent(ev.Span, ev.Device, ev.Kind.String(), ev.Name, ev.Bytes, ev.Modeled)
	}
}

// Devices exposes the GPU fleet (empty when offload is disabled).
func (e *Engine) Devices() []*gpu.Device { return e.devices }

// Scheduler exposes the multi-GPU scheduler (nil without devices).
func (e *Engine) Scheduler() *sched.Scheduler { return e.sched }

// GPUEnabled reports whether offload is currently on.
func (e *Engine) GPUEnabled() bool { return e.gpuEnabled && e.sched != nil }

// SetGPUEnabled toggles offload at runtime — how the benchmarks produce
// their "GPU off" baselines on the same engine.
func (e *Engine) SetGPUEnabled(on bool) { e.gpuEnabled = on }

// maxDeviceMem returns the largest attached device's memory, 0 if none.
func (e *Engine) maxDeviceMem() int64 {
	if !e.GPUEnabled() {
		return 0
	}
	var m int64
	for _, d := range e.devices {
		if d.TotalMemory() > m {
			m = d.TotalMemory()
		}
	}
	return m
}

// OpStat describes one executed operator: what ran, over how many
// rows, where on the query's virtual timeline and under which span,
// plus the group-by or sort specifics. It is the row EXPLAIN ANALYZE
// audits — the engine records it once, for every query.
type OpStat = explain.OpRecord

// WallBreakdown attributes one query's real wall-clock time to phases.
// Unlike Modeled it is machine- and load-dependent — informational,
// never gated — but it is what the wall-clock speed campaign needs to
// see: where the real milliseconds go. Parse/Plan cover the SQL
// front-end (zero for pre-lowered plans); Exec covers the plan's
// execution, with the GPU-kernel / host-evaluator / gather split
// measured at the operator call sites (their sum is ≤ Exec; the residue
// is operator bookkeeping and modeled-time accounting).
type WallBreakdown struct {
	Parse      time.Duration
	Plan       time.Duration
	Exec       time.Duration
	ExecGPU    time.Duration
	ExecHost   time.Duration
	ExecGather time.Duration
}

// Result is a completed query.
type Result struct {
	// Table holds the result rows.
	Table *columnar.Table
	// Columns names the output columns in order.
	Columns []string
	// Modeled is the end-to-end modeled execution time.
	Modeled vtime.Duration
	// Profile is the query's resource demand for the concurrency
	// simulator.
	Profile des.Profile
	// Ops lists per-operator statistics in execution order.
	Ops []OpStat
	// GPUUsed reports whether any operator took a device path.
	GPUUsed bool
	// Wall is the query's wall-clock phase attribution.
	Wall WallBreakdown
	// TraceSeq is the query's 1-based sequence number on the attached
	// tracer (0 when tracing is off) — the key for carving its span
	// subtree out of a shared tracer.
	TraceSeq uint64
}

// Query parses, plans and executes one SQL statement.
func (e *Engine) Query(sql string) (*Result, error) {
	return e.QueryNamed("", sql)
}

// QueryNamed executes sql under an explicit query name. The name labels
// the query's root span in the trace and its rollup row in the monitor;
// empty picks an automatic "q<N>" name.
func (e *Engine) QueryNamed(name, sql string) (*Result, error) {
	return e.QueryNamedCtxAttrs(context.Background(), name, sql)
}

// QueryNamedCtxAttrs is QueryNamed bounded by a context — execution
// checks it between operators and aborts with its error once canceled or
// past its deadline, releasing every reservation it holds — with caller
// attributes annotated onto the query's root span when a tracer is
// attached: the serving layer attributes admission decisions (class,
// queue wait, session) in the trace that holds the operator spans.
func (e *Engine) QueryNamedCtxAttrs(ctx context.Context, name, sql string, attrs ...trace.Attr) (*Result, error) {
	_, res, err := e.run(ctx, name, sql, false, attrs)
	return res, err
}

// run is the one parse → plan → exec path behind every query and audit
// entry point. Each phase runs under prof.Phase so CPU-profile samples
// carry class/phase/request labels and the request's resource account
// (when one is bound to ctx) charges exactly the durations the query log
// will record — the two surfaces reconcile by construction. With audit
// set, exec is the audited epoch and a report comes back with the result.
func (e *Engine) run(ctx context.Context, name, sql string, audit bool, attrs []trace.Attr) (*explain.Report, *Result, error) {
	var stmt *sqlparse.SelectStmt
	parseWall, err := prof.Phase(ctx, "parse", func(ctx context.Context) error {
		var perr error
		stmt, perr = sqlparse.Parse(sql)
		return perr
	})
	if err != nil {
		return nil, nil, err
	}
	var p *plan.Plan
	planWall, err := prof.Phase(ctx, "plan", func(ctx context.Context) error {
		var perr error
		p, perr = e.plan(stmt)
		return perr
	})
	if err != nil {
		return nil, nil, err
	}
	if audit {
		e.explainMu.Lock()
		defer e.explainMu.Unlock()
	}
	var rep *explain.Report
	var res *Result
	execWall, err := prof.Phase(ctx, "exec", func(ctx context.Context) error {
		var xerr error
		if audit {
			rep, res, xerr = e.executeAudited(ctx, name, p, sql, attrs)
		} else {
			res, xerr = e.executeWith(ctx, name, p, sql, attrs...)
		}
		return xerr
	})
	if res != nil {
		res.Wall.Parse = parseWall
		res.Wall.Plan = planWall
		res.Wall.Exec = execWall
	}
	return rep, res, err
}

// plan lowers a statement and places its WHERE conjuncts below the star
// join, on the tables of this engine's catalog that own their columns.
func (e *Engine) plan(stmt *sqlparse.SelectStmt) (*plan.Plan, error) {
	p, err := plan.Build(stmt)
	if err != nil {
		return nil, err
	}
	plan.PlaceFilters(p, func(table, column string) bool {
		tbl := e.tables[table]
		return tbl != nil && tbl.HasColumn(column)
	})
	return p, nil
}

// Explain parses and plans a statement and renders the logical plan plus
// the optimizer's group-by path prognosis, without executing.
func (e *Engine) Explain(sql string) (string, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	p, err := e.plan(stmt)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan: %s\n", p.Root)
	if pr := e.prognosis(p.Root); pr != nil {
		fmt.Fprintf(&sb, "groupby keys=%v: est rows<=%d groups~%d -> %s (%s)\n",
			pr.Keys, pr.Estimate.Rows, pr.Estimate.Groups, pr.Decision, pr.Reason)
	}
	return sb.String(), nil
}

// prognosis computes the plan-time Figure-3 prognosis for the plan's
// Aggregate, nil when it has none: a plan has at most one. EXPLAIN
// renders it; EXPLAIN ANALYZE pairs it with the executed group-by's row.
// Its row count is the leftmost scan's table rows (filters and joins are
// unknown until run time: the count is the upper bound the optimizer
// has), -1 when that table has no statistics.
func (e *Engine) prognosis(n plan.Node) *optimizer.Prognosis {
	var agg *plan.Aggregate
	var baseRows int64 = -1
	for cur := n; cur != nil; cur = plan.Input(cur) {
		switch x := cur.(type) {
		case *plan.Aggregate:
			agg = x
		case *plan.Scan:
			if ts := e.stats[x.Table]; ts != nil {
				baseRows = int64(ts.Rows)
			}
		}
	}
	if agg == nil {
		return nil
	}
	cols, _, err := lowerAggs(agg.Aggs)
	if err != nil {
		return nil
	}
	pr := optimizer.Prognose(agg.Keys, e.estimate(agg, cols, baseRows), e.thresholds, e.maxDeviceMem())
	return &pr
}

// QueryError is the error of a query that failed or was canceled after
// execution began. It reads exactly like the cause it wraps and carries
// the query's sequence number on the attached tracer (0 when tracing is
// off), so whoever owns the tracer can still take the failed query's
// span subtree out of it.
type QueryError struct {
	TraceSeq uint64
	Err      error
}

func (e *QueryError) Error() string { return e.Err.Error() }
func (e *QueryError) Unwrap() error { return e.Err }

// executeWith runs a lowered plan under a query root span when a tracer
// is attached (consecutive queries lay out back to back on the engine's
// virtual clock, so one trace file holds a whole session). The query's
// 1-based sequence number on the tracer — the key for carving its span
// subtree out of a shared tracer — comes back as Result.TraceSeq, or
// inside a *QueryError when execution fails. attrs are annotated onto the
// root span (admission attribution from the serving layer).
func (e *Engine) executeWith(ctx context.Context, name string, p *plan.Plan, sql string, attrs ...trace.Attr) (*Result, error) {
	wallStart := time.Now()
	q := qctx{ctx: ctx, wall: &wallAcc{}}
	requestID := qlog.RequestIDFrom(ctx)
	tr := e.tracer.Load()
	if tr != nil {
		e.clockMu.Lock()
		q.base = e.clock
		e.clockMu.Unlock()
		q.tc = tr.StartQuery(name, q.base)
		if sql != "" {
			q.tc.Annotate(trace.Str("sql", sql))
		}
		if requestID != "" {
			q.tc.Annotate(trace.Str("request_id", requestID))
		}
		if len(attrs) > 0 {
			q.tc.Annotate(attrs...)
		}
	}
	f, err := e.exec(p.Root, q)
	if err != nil {
		if q.tc.Enabled() {
			q.tc.End(q.base, trace.Str("error", err.Error()))
		}
		return nil, &QueryError{TraceSeq: q.tc.Query(), Err: err}
	}
	if !f.lined() {
		// The result is the one copy of the columns the statement outputs:
		// read through their lists, the rows a sort and a limit left.
		row := f.open("materialize", 0)
		e.materialize(f)
		row.close(f.Len(), "result", trace.Int("rows", int64(f.Len())))
	}
	cols := p.Output
	if len(cols) == 0 {
		for _, c := range f.table().Columns() {
			cols = append(cols, c.Name())
		}
	}
	res := &Result{
		Table:    f.table(),
		Columns:  cols,
		Modeled:  f.modeled,
		Profile:  des.Profile{Name: "query", Phases: mergePhases(f.phases)},
		Ops:      f.ops,
		GPUUsed:  f.gpuUsed,
		TraceSeq: q.tc.Query(),
		Wall: WallBreakdown{
			Exec:       time.Since(wallStart),
			ExecGPU:    q.wall.gpuD(),
			ExecHost:   q.wall.hostD(),
			ExecGather: q.wall.gatherD(),
		},
	}
	if q.tc.Enabled() {
		gpuAttr := int64(0)
		if f.gpuUsed {
			gpuAttr = 1
		}
		q.tc.End(f.at(), trace.Int("rows", int64(f.Len())), trace.Int("gpu", gpuAttr))
		e.clockMu.Lock()
		e.clock = e.clock.Add(f.modeled)
		e.clockMu.Unlock()
	}
	if name == "" {
		name = "query"
	}
	e.mon.RecordQuery(name, f.modeled, f.gpuUsed)
	// The scheduler's breaker probations expire in virtual time; each
	// query's modeled duration is what makes that clock move.
	if e.sched != nil {
		e.sched.Advance(res.Modeled)
	}
	return res, nil
}

// qctx is the per-query trace context threaded through execution: the
// query's root span plus its start offset on the engine's virtual clock.
// The zero value (tracer detached) makes every span operation a no-op.
// depth is the current plan-tree depth (root 0), bumped by deeper() at
// every exec recursion so operator rows carry their node's depth even
// though the frame itself carries the deepest (scan-level) context.
type qctx struct {
	tc    trace.Context
	base  vtime.Time
	depth int
	// wall accumulates the query's GPU-kernel / host-evaluator / gather
	// wall-clock split; atomics because sort jobs and the fused-chain
	// fill overlap run concurrently. nil-safe (no-op) for zero qctx.
	wall *wallAcc
	// ctx bounds the query: execution checks it between operators and
	// aborts as soon as it reports done. nil means unbounded.
	ctx context.Context
	// chain, when set, is the fusion chain record for the aggregate
	// currently being descended into; the filter/derive exec hooks
	// record entry table and stage shapes on it.
	chain *chainRec
}

// wallAcc accumulates per-query wall-clock nanoseconds by work kind.
type wallAcc struct {
	gpu, host, gather atomic.Int64
}

func (w *wallAcc) gpuD() time.Duration    { return time.Duration(w.gpu.Load()) }
func (w *wallAcc) hostD() time.Duration   { return time.Duration(w.host.Load()) }
func (w *wallAcc) gatherD() time.Duration { return time.Duration(w.gather.Load()) }

// wallGPU charges wall time since start to the GPU-kernel phase.
func (q qctx) wallGPU(start time.Time) {
	if q.wall != nil {
		q.wall.gpu.Add(int64(time.Since(start)))
	}
}

// wallHost charges wall time since start to the host-evaluator phase.
func (q qctx) wallHost(start time.Time) {
	if q.wall != nil {
		q.wall.host.Add(int64(time.Since(start)))
	}
}

// wallGather charges wall time since start to the gather phase.
func (q qctx) wallGather(start time.Time) {
	if q.wall != nil {
		q.wall.gather.Add(int64(time.Since(start)))
	}
}

// deeper returns the context one plan level down.
func (q qctx) deeper() qctx {
	q.depth++
	return q
}

// err reports the query's cancellation state: the context error once the
// context is canceled or past its deadline, nil otherwise (including for
// unbounded queries).
func (q qctx) err() error {
	if q.ctx == nil {
		return nil
	}
	return q.ctx.Err()
}

// addCPU charges host time to the frame as both modeled duration and a
// DES phase (core-seconds at the engine's degree).
func (e *Engine) addCPU(f *frame, d vtime.Duration) {
	if d <= 0 {
		return
	}
	f.modeled += d
	par := e.model.CPU.EffectiveParallelism(e.cfg.Degree)
	f.phases = append(f.phases, des.Phase{
		Kind:   des.CPUPhase,
		Work:   d.Seconds() * par,
		MaxPar: par,
	})
}

// addGPU charges device time and memory residency to the frame.
func (e *Engine) addGPU(f *frame, d vtime.Duration, mem int64) {
	if d <= 0 {
		return
	}
	f.modeled += d
	f.phases = append(f.phases, des.Phase{Kind: des.GPUPhase, Work: d.Seconds(), Mem: mem})
	f.gpuUsed = true
}

// mergePhases coalesces adjacent CPU phases to keep profiles small.
func mergePhases(ps []des.Phase) []des.Phase {
	var out []des.Phase
	for _, p := range ps {
		if p.Work <= 0 {
			continue
		}
		n := len(out)
		if n > 0 && out[n-1].Kind == des.CPUPhase && p.Kind == des.CPUPhase && out[n-1].MaxPar == p.MaxPar {
			out[n-1].Work += p.Work
			continue
		}
		out = append(out, p)
	}
	return out
}
