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
// them, audited or not), and Build cross-checks them against the
// query's span subtree and the monitor deltas, producing a Report whose
// per-operator kernel/transfer/fallback counts sum exactly to the query
// totals.
//
// Reports render two ways, following the repo's exporter conventions:
// a byte-stable text tree (golden-locked — only virtual-time values and
// deterministic orderings appear) and JSON with an independent
// validator (ValidateReport), the same pattern as trace.ValidateChrome
// and metrics.ValidateExposition.
package explain

import (
	"blugpu/internal/optimizer"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// AggRecord is the group-by-specific slice of an operator record: the
// estimate-accountability and path-decision facts only the engine's
// aggregate executor knows.
type AggRecord struct {
	Keys []string
	// Plan is the plan-time prognosis (from table statistics), when the
	// planner produced one for this group-by.
	Plan *optimizer.Prognosis
	// InputRows is the exact input cardinality, and Groups the group
	// count the runtime decision estimated from table statistics.
	// EstRows, when not 0, is the row estimate the decision was made on
	// instead of InputRows: a fused chain that spans the joins below
	// decides before they run, on the probe side's rows times each join's
	// kept fraction.
	InputRows int64
	EstRows   int64
	Groups    int64
	// EstGroups is the KMV sketch's group-count estimate, which sizes the
	// device's hash table; ActualGroups is what the group-by actually
	// produced. RelErr is |EstGroups-ActualGroups|/ActualGroups (0 when
	// ActualGroups is 0).
	EstGroups    int64
	ActualGroups int64
	RelErr       float64
	// Kept is the groups a device top-k selection let leave the device —
	// the k of an ORDER BY ... LIMIT k above — and 0 when every group did.
	Kept int64
	// MemoryDemand is the device demand the runtime decision saw, bounded
	// from Groups.
	MemoryDemand int64
	// Decision/Reason are the runtime Figure-3 outcome; Path is what
	// finally executed ("gpu/<kernel>" or "cpu (<reason>)").
	Decision string
	Reason   string
	Path     string
	// Attempts counts device placements tried; Retries the cross-device
	// retries among them; FallbackCause is the terminal GPU error that
	// routed the query to the CPU (empty when the GPU path succeeded or
	// was never tried).
	Attempts      int
	Retries       int
	FallbackCause string
	// Devices lists the device ids of successful placements, in order.
	Devices []int
	// Fused marks a group-by that ran as a fused device chain: its input
	// operators executed on-device under one chain-level reservation, and
	// H2D collapsed to column-cache misses. FusedStages counts the fused
	// pipeline stages ahead of the group-by; SavedBytes/UploadBytes are
	// the H2D bytes avoided (cache hits) vs moved (cache fills);
	// ChainHighWater is the chain reservation's peak allocation.
	// DeviceKeys marks a chain whose fused_pack built the grouping keys,
	// its entry resident, where the host key evaluators are charged
	// otherwise; DeviceJoins counts the joins it probed on the device
	// against resident build tables, where the host joins are charged
	// otherwise.
	Fused          bool
	FusedStages    int
	DeviceKeys     bool
	DeviceJoins    int
	SavedBytes     int64
	UploadBytes    int64
	ChainHighWater int64
}

// SortRecord is the sort-specific slice of an operator record: the
// hybrid job-queue breakdown.
type SortRecord struct {
	Jobs      int
	GPUJobs   int
	CPUJobs   int
	Requeues  int // duplicate ranges the GPU handed back
	Fallbacks int // GPU-eligible jobs that ended up on the host
	MaxDepth  int
}

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
	Agg        *AggRecord
	Sort       *SortRecord
}
