// Package explain implements EXPLAIN ANALYZE for the hybrid engine: a
// per-query decision audit that reconciles what the optimizer planned
// with what actually ran.
//
// The engine already produces three partial views of one execution —
// the tracer's span tree (which operator, which attempt, which kernel),
// the monitor's aggregate counters (how much, fleet-wide), and the
// optimizer's Figure-3 decisions (where work *should* run). None of
// them answers the operational question "was the plan right for this
// query?". This package joins all three: the engine records one
// OpRecord per executed operator (its Result.Ops — every query has
// them, audited or not), whose group-by and sort rows are the report's
// own GroupbyReport and SortReport, and the audit fills the monitor
// columns of TotalsReport and the host columns of MemoryReport. Build
// copies each record once and adds only what the span subtree and the
// plan-time prognosis say, producing a Report whose per-operator
// kernel/transfer/fallback counts sum exactly to the query totals.
//
// Reports render two ways, following the repo's exporter conventions:
// a byte-stable text tree (golden-locked — only virtual-time values and
// deterministic orderings appear) and JSON with an independent
// validator (ValidateReport), the same pattern as trace.ValidateChrome
// and metrics.ValidateExposition.
package explain

import (
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// OpRecord is one executed operator as the engine saw it; the engine's
// Result.Ops is a list of these, in execution order.
type OpRecord struct {
	Op     string
	Detail string
	// Depth is the operator's depth in the plan tree (the root operator
	// is depth 0); execution order is deepest-first.
	Depth int
	Rows  int
	// Span is the operator's trace span id (0 when the operator emits no
	// span, e.g. limit). Start/End bound the operator on the query's
	// virtual timeline; Modeled is the engine-charged self time (which
	// excludes retry backoff — the span bounds include it).
	Span       trace.SpanID
	Start, End vtime.Time
	Modeled    vtime.Duration
	// Agg and Sort are the group-by's and the sort's report rows as the
	// engine filled them; Build completes copies and leaves these alone.
	Agg  *GroupbyReport
	Sort *SortReport
}
