package explain

import (
	"fmt"
	"math"

	"blugpu/internal/optimizer"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// ReportSchema versions the JSON report layout; ValidateReport refuses
// documents from a different schema.
const ReportSchema = 1

// Input is everything Build joins into a report.
type Input struct {
	Query      string
	RequestID  string // serving-layer request ID; empty for direct calls
	SQL        string
	Plan       string
	GPUEnabled bool
	Thresholds optimizer.Thresholds
	Modeled    vtime.Duration
	Rows       int
	// Ops are the engine hooks' records in execution order; Build reads
	// them and writes nothing back.
	Ops []OpRecord
	// Prognosis is the plan-time Figure-3 call (from table statistics)
	// for the plan's group-by, when the planner produced one; Build
	// pairs it with the group-by that ran (a plan has at most one).
	Prognosis *optimizer.Prognosis
	// Spans is the query's complete span subtree (Tracer.QuerySpans).
	Spans []trace.Span
	// Monitor holds the query's counter deltas in the monitor columns of
	// the ledger, and Host the pinned-segment accounting in the host
	// columns of the memory section; Build fills the rest of each.
	// Orphans is the tracer's orphaned-device-event delta.
	Monitor TotalsReport
	Host    MemoryReport
	// Busy is the per-device busy-time delta across the query, split by
	// activity kind. Modeled virtual time, so the rendered resources
	// section stays deterministic.
	Busy    []DeviceBusy
	Orphans uint64
}

// DeviceBusy is one device's modeled busy-time delta over the audited
// query.
type DeviceBusy struct {
	Device int
	Kernel vtime.Duration
	H2D    vtime.Duration
	D2H    vtime.Duration
}

// PlanReport is the plan-time half of a group-by audit.
type PlanReport struct {
	Rows        int64  `json:"rows"`
	Groups      int64  `json:"groups"`
	DemandBytes int64  `json:"demand_bytes"`
	Decision    string `json:"decision"`
	Reason      string `json:"reason"`
	// Agrees reports whether the runtime decision matched the plan-time
	// one — the headline of the decision audit.
	Agrees bool `json:"agrees"`
}

// GroupbyReport is the estimate-accountability and path audit of one
// group-by operator: the facts only the engine's aggregate executor
// knows, recorded by it as the operator's row.
type GroupbyReport struct {
	Keys []string `json:"keys"`
	// Plan is the plan-time half of the audit; Build fills it from
	// Input.Prognosis.
	Plan *PlanReport `json:"plan,omitempty"`
	// InputRows is the exact input cardinality. Groups and DemandBytes
	// are what the runtime Figure-3 decision estimated from table
	// statistics; EstRows, when not 0, is the row estimate it decided on
	// instead of InputRows: a fused chain that spans the joins below
	// decides before they run, on the probe side's rows times each join's
	// kept fraction.
	InputRows int64 `json:"input_rows"`
	EstRows   int64 `json:"est_rows,omitempty"`
	Groups    int64 `json:"groups"`
	// EstGroups is the KMV sketch's group-count estimate, which sizes the
	// device's hash table; ActualGroups is what the group-by produced.
	// Kept is the groups a device top-k selection let leave the device —
	// the k of an ORDER BY ... LIMIT k above — and 0 when every group did.
	// RelErr is |EstGroups-ActualGroups|/ActualGroups (0 when
	// ActualGroups is 0), which Build rounds to 1e-6.
	EstGroups    int64   `json:"est_groups"`
	ActualGroups int64   `json:"actual_groups"`
	Kept         int64   `json:"kept,omitempty"`
	RelErr       float64 `json:"rel_err"`
	DemandBytes  int64   `json:"demand_bytes"`
	// Decision/Reason are the runtime Figure-3 outcome; Path is what
	// finally executed ("gpu/<kernel>" or "cpu (<reason>)").
	Decision string `json:"decision"`
	Reason   string `json:"reason"`
	Path     string `json:"path"`
	// Attempts counts device placements tried; Retries the cross-device
	// retries among them; FallbackCause is the terminal GPU error that
	// routed the query to the CPU (empty when the GPU path succeeded or
	// was never tried). Devices lists the device ids of successful
	// placements, in order.
	Attempts      int    `json:"attempts"`
	Retries       int    `json:"retries"`
	FallbackCause string `json:"fallback_cause,omitempty"`
	Devices       []int  `json:"devices,omitempty"`
	// Fused marks a group-by that ran as a fused device chain: its input
	// operators executed on-device under one chain-level reservation, and
	// H2D collapsed to column-cache misses. The fields below it are set
	// only then. FusedStages counts the fused pipeline stages ahead of
	// the group-by; SavedBytes/UploadBytes are the H2D bytes avoided
	// (cache hits) vs moved (cache fills); ChainHighWater is the chain
	// reservation's peak allocation. DeviceKeys marks a chain whose
	// fused_pack built the grouping keys, its entry resident, where the
	// host key evaluators are charged otherwise; DeviceJoins counts the
	// joins it probed on the device against resident build tables, where
	// the host joins are charged otherwise.
	Fused          bool  `json:"fused,omitempty"`
	FusedStages    int   `json:"fused_stages,omitempty"`
	DeviceKeys     bool  `json:"device_keys,omitempty"`
	DeviceJoins    int   `json:"device_joins,omitempty"`
	SavedBytes     int64 `json:"saved_bytes,omitempty"`
	UploadBytes    int64 `json:"upload_bytes,omitempty"`
	ChainHighWater int64 `json:"chain_high_water,omitempty"`
}

// SortReport is the hybrid sort's job-queue breakdown. JobSpans is the
// span-side count of "sort-job" spans under the operator, which Build
// fills and which must equal Jobs in a fully attributed run.
type SortReport struct {
	Jobs      int `json:"jobs"`
	GPUJobs   int `json:"gpu_jobs"`
	CPUJobs   int `json:"cpu_jobs"`
	Requeues  int `json:"requeues"`  // duplicate ranges the GPU handed back
	Fallbacks int `json:"fallbacks"` // GPU-eligible jobs that ended up on the host
	MaxDepth  int `json:"max_depth"`
	JobSpans  int `json:"job_spans"`
}

// OpReport is one operator of the audited plan, annotated with both the
// engine-side record and the span-subtree evidence.
type OpReport struct {
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"`
	Depth  int    `json:"depth"`
	Rows   int    `json:"rows"`
	// VtimeMs is the operator's span-bounded virtual time (includes retry
	// backoff); SelfMs is the engine-charged operator cost (excludes it).
	VtimeMs float64 `json:"vtime_ms"`
	SelfMs  float64 `json:"self_ms"`
	// Span-subtree evidence: device work, placement attempts, breaker
	// exclusions and degradations under this operator.
	Kernels         int            `json:"kernels"`
	Transfers       int            `json:"transfers"`
	TransferBytes   int64          `json:"transfer_bytes"`
	Placements      int            `json:"placements"`
	PlaceFailures   int            `json:"place_failures"`
	QuarantineSkips int            `json:"quarantine_skips"`
	Retries         int            `json:"retries"`
	Fallbacks       int            `json:"fallbacks"`
	Faults          int            `json:"faults"`
	Attributed      bool           `json:"attributed"`
	Groupby         *GroupbyReport `json:"groupby,omitempty"`
	Sort            *SortReport    `json:"sort,omitempty"`
}

// TotalsReport is the query-level double-entry ledger: each monitor
// counter next to its span-tree counterpart. The monitor columns
// (Kernels, Transfers, TransferBytes, Retries, PlaceRetries, Fallbacks,
// Faults) are the counter deltas the engine took around the query;
// Retries counts cross-device group-by retries and PlaceRetries the
// scheduler's same-placement retries down its candidate ranking (those
// have no dedicated span, so they reconcile separately). Build fills
// the span columns and Mismatches, which lists every disagreement
// (empty in a reconciled run).
type TotalsReport struct {
	Kernels           uint64   `json:"kernels"`
	KernelSpans       int      `json:"kernel_spans"`
	Transfers         uint64   `json:"transfers"`
	TransferSpans     int      `json:"transfer_spans"`
	TransferBytes     int64    `json:"transfer_bytes"`
	TransferSpanBytes int64    `json:"transfer_span_bytes"`
	Retries           uint64   `json:"retries"`
	RetrySpans        int      `json:"retry_spans"`
	PlaceRetries      uint64   `json:"place_retries"`
	Fallbacks         uint64   `json:"fallbacks"`
	FallbackSpans     int      `json:"fallback_spans"`
	Faults            uint64   `json:"faults"`
	FaultAttrs        int      `json:"fault_attrs"`
	Placements        int      `json:"placements"`
	PlaceFailures     int      `json:"place_failures"`
	QuarantineSkips   int      `json:"quarantine_skips"`
	Mismatches        []string `json:"mismatches,omitempty"`
}

// MemoryReport is the query's memory accounting.
type MemoryReport struct {
	// DeviceHighWaterBytes is the largest single device reservation the
	// query held (max demand among successful placements), which Build
	// reads off the spans. The host columns are the pinned segment's:
	// HostWatermarkBytes its in-use peak during the query (the registry's
	// watermark, re-armed just before execution), the rest its state
	// after the query and its allocation deltas across it.
	DeviceHighWaterBytes int64  `json:"device_high_water_bytes"`
	HostWatermarkBytes   int64  `json:"host_watermark_bytes"`
	HostFreeSpans        int    `json:"host_free_spans"`
	HostMaxFreeSpans     int    `json:"host_max_free_spans"`
	HostAllocs           uint64 `json:"host_allocs"`
	HostAllocFails       uint64 `json:"host_alloc_fails"`
}

// DeviceResourceReport is one device's row of the resources section:
// the modeled busy time this query put on it, split by kind. All values
// are quantized milliseconds of virtual time.
type DeviceResourceReport struct {
	Device   int     `json:"device"`
	BusyMs   float64 `json:"busy_ms"`
	KernelMs float64 `json:"kernel_ms"`
	H2DMs    float64 `json:"h2d_ms"`
	D2HMs    float64 `json:"d2h_ms"`
}

// Report is one query's complete decision audit.
type Report struct {
	Schema int    `json:"schema"`
	Query  string `json:"query"`
	// RequestID joins the report against the query log and the live
	// trace ring; omitted for queries run outside the serving layer.
	RequestID  string  `json:"request_id,omitempty"`
	SQL        string  `json:"sql,omitempty"`
	Plan       string  `json:"plan"`
	GPUEnabled bool    `json:"gpu_enabled"`
	Thresholds string  `json:"thresholds"`
	ModeledMs  float64 `json:"modeled_ms"`
	Rows       int     `json:"rows"`
	// Ops is in display order: the plan root first, its input below it.
	Ops    []OpReport   `json:"ops"`
	Totals TotalsReport `json:"totals"`
	Memory MemoryReport `json:"memory"`
	// Resources is the per-device utilization delta over the query
	// (modeled busy time by kind), one row per engine device. Absent in
	// reports built without device snapshots (schema stays 1 — the field
	// is optional).
	Resources []DeviceResourceReport `json:"resources,omitempty"`
	// Unattributed counts operators that did work without a span plus
	// device-work spans claimed by no operator; Orphans is the tracer's
	// orphaned-event count for the query. Both are 0 in a clean run.
	Unattributed int    `json:"unattributed"`
	Orphans      uint64 `json:"orphans"`
}

// quantMs quantizes a virtual duration to 1e-6 ms (one modeled
// nanosecond) — the same quantum as the bench snapshots, and for the
// same reason: parallel host pools accumulate chunk durations in
// completion order, which drifts by ~1 ulp run to run, and the rendered
// report must be byte-stable.
func quantMs(d vtime.Duration) float64 {
	return math.Round(d.Milliseconds()*1e6) / 1e6
}

// spanStats is what one span subtree contributes to an operator.
type spanStats struct {
	kernels, transfers         int
	transferBytes              int64
	placements, placeFails     int
	quarantineSkips            int
	retries, fallbacks, faults int
	jobSpans                   int
	highWater                  int64 // largest demand among successful placements
}

// Build joins the engine's operator records, the query's span subtree
// and the monitor deltas into a Report.
func Build(in Input) *Report {
	r := &Report{
		Schema:     ReportSchema,
		Query:      in.Query,
		RequestID:  in.RequestID,
		SQL:        in.SQL,
		Plan:       in.Plan,
		GPUEnabled: in.GPUEnabled,
		Thresholds: in.Thresholds.String(),
		ModeledMs:  quantMs(in.Modeled),
		Rows:       in.Rows,
		Orphans:    in.Orphans,
	}
	for _, b := range in.Busy {
		r.Resources = append(r.Resources, DeviceResourceReport{
			Device:   b.Device,
			BusyMs:   quantMs(b.Kernel + b.H2D + b.D2H),
			KernelMs: quantMs(b.Kernel),
			H2DMs:    quantMs(b.H2D),
			D2HMs:    quantMs(b.D2H),
		})
	}

	// Index the span subtree: id -> span, parent -> children, both in
	// creation order (deterministic).
	byID := make(map[trace.SpanID]*trace.Span, len(in.Spans))
	children := make(map[trace.SpanID][]trace.SpanID, len(in.Spans))
	for i := range in.Spans {
		s := &in.Spans[i]
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s.ID)
	}

	// tally accumulates one span (not its children) into st.
	tally := func(s *trace.Span, st *spanStats) {
		switch s.Cat {
		case "kernel":
			st.kernels++
		case "transfer":
			st.transfers++
			for _, a := range s.Attrs {
				if a.Key == "bytes" && a.IsInt {
					st.transferBytes += a.Int
				}
			}
		case "sort-job":
			st.jobSpans++
		case "sched":
			if s.Name == "place" {
				var demand int64
				ok := false
				for _, a := range s.Attrs {
					switch {
					case a.Key == "device":
						ok = true
					case a.Key == "demand_bytes" && a.IsInt:
						demand = a.Int
					}
				}
				if ok {
					st.placements++
					st.highWater = max(st.highWater, demand)
				} else {
					st.placeFails++
				}
			}
		case "gpu":
			if s.Name == "retry-backoff" {
				st.retries++
			}
		}
		for _, a := range s.Attrs {
			switch a.Key {
			case "quarantined":
				st.quarantineSkips++
			case "fault":
				st.faults++
			case "fallback", "gpu-error":
				st.fallbacks++
			}
		}
	}

	// walk tallies a whole subtree rooted at id (inclusive), marking every
	// visited span as claimed.
	claimed := make(map[trace.SpanID]bool, len(in.Spans))
	var walk func(id trace.SpanID, st *spanStats)
	walk = func(id trace.SpanID, st *spanStats) {
		s := byID[id]
		if s == nil {
			return
		}
		claimed[id] = true
		tally(s, st)
		for _, c := range children[id] {
			walk(c, st)
		}
	}

	// Per-operator reports, in execution order first.
	unattributed := 0
	execOrder := make([]OpReport, 0, len(in.Ops))
	for _, rec := range in.Ops {
		op := OpReport{
			Op:     rec.Op,
			Detail: rec.Detail,
			Depth:  rec.Depth,
			Rows:   rec.Rows,
			SelfMs: quantMs(rec.Modeled),
		}
		var st spanStats
		if rec.Span != 0 {
			if s := byID[rec.Span]; s != nil {
				walk(rec.Span, &st)
				op.VtimeMs = quantMs(s.End.Sub(s.Start))
				op.Attributed = true
			}
		}
		if !op.Attributed {
			op.VtimeMs = quantMs(rec.End.Sub(rec.Start))
			// An operator that charged no time needs no span to be
			// accounted for (limit does pure bookkeeping).
			if rec.Modeled == 0 && rec.End == rec.Start {
				op.Attributed = true
			} else {
				unattributed++
			}
		}
		op.Kernels = st.kernels
		op.Transfers = st.transfers
		op.TransferBytes = st.transferBytes
		op.Placements = st.placements
		op.PlaceFailures = st.placeFails
		op.QuarantineSkips = st.quarantineSkips
		op.Retries = st.retries
		op.Fallbacks = st.fallbacks
		op.Faults = st.faults
		if rec.Agg != nil {
			g := *rec.Agg
			g.RelErr = math.Round(g.RelErr*1e6) / 1e6
			if p := in.Prognosis; p != nil {
				g.Plan = &PlanReport{
					Rows:        p.Estimate.Rows,
					Groups:      p.Estimate.Groups,
					DemandBytes: p.Estimate.MemoryDemand,
					Decision:    p.Decision.String(),
					Reason:      p.Reason.String(),
					Agrees:      p.Decision.String() == g.Decision,
				}
			}
			op.Groupby = &g
		}
		if rec.Sort != nil {
			s := *rec.Sort
			s.JobSpans = st.jobSpans
			op.Sort = &s
		}
		execOrder = append(execOrder, op)
	}
	// Display order: plan root first.
	r.Ops = make([]OpReport, 0, len(execOrder))
	for i := len(execOrder) - 1; i >= 0; i-- {
		r.Ops = append(r.Ops, execOrder[i])
	}

	// Query-level span totals over the whole subtree, then device-work
	// spans no operator claimed.
	var qt spanStats
	for i := range in.Spans {
		tally(&in.Spans[i], &qt)
	}
	for i := range in.Spans {
		s := &in.Spans[i]
		if claimed[s.ID] {
			continue
		}
		if s.Cat == "kernel" || s.Cat == "transfer" {
			unattributed++
		}
	}
	r.Unattributed = unattributed

	t := in.Monitor
	t.KernelSpans = qt.kernels
	t.TransferSpans = qt.transfers
	t.TransferSpanBytes = qt.transferBytes
	t.RetrySpans = qt.retries
	t.FallbackSpans = qt.fallbacks
	t.FaultAttrs = qt.faults
	t.Placements = qt.placements
	t.PlaceFailures = qt.placeFails
	t.QuarantineSkips = qt.quarantineSkips
	t.Mismatches = nil
	mismatch := func(name string, counter uint64, spans int) {
		if counter != uint64(spans) {
			t.Mismatches = append(t.Mismatches,
				fmt.Sprintf("%s: monitor=%d spans=%d", name, counter, spans))
		}
	}
	mismatch("kernels", t.Kernels, t.KernelSpans)
	mismatch("transfers", t.Transfers, t.TransferSpans)
	if t.TransferBytes != t.TransferSpanBytes {
		t.Mismatches = append(t.Mismatches,
			fmt.Sprintf("transfer-bytes: monitor=%d spans=%d", t.TransferBytes, t.TransferSpanBytes))
	}
	mismatch("retries", t.Retries, t.RetrySpans)
	mismatch("fallbacks", t.Fallbacks, t.FallbackSpans)
	mismatch("faults", t.Faults, t.FaultAttrs)
	r.Totals = t

	r.Memory = in.Host
	r.Memory.DeviceHighWaterBytes = qt.highWater
	return r
}

// Reconciled reports whether the double-entry ledger balanced and every
// operator was attributed.
func (r *Report) Reconciled() bool {
	return r.Unattributed == 0 && r.Orphans == 0 && len(r.Totals.Mismatches) == 0
}
