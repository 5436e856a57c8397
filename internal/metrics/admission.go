package metrics

import "blugpu/internal/monitor"

// AdmissionSnapshot is a point-in-time view of the serving layer's
// admission-control state. The types live here (not in internal/serve)
// so the collector can consume them without importing the serve package;
// serve imports metrics for the shared health signal already.
//
// The four outcome counters partition Submitted exactly:
//
//	Submitted == Admitted + Shed + TimedOut + Drained + in-flight/queued
//
// with the residue being work not yet resolved at snapshot time. A
// drained server has residue zero — the double-entry reconciliation the
// saturation tests and `blucheck serve` assert.
type AdmissionSnapshot struct {
	QueueDepth    int  `json:"queue_depth"`
	QueueCapacity int  `json:"queue_capacity"` // configured bound
	EffectiveCap  int  `json:"effective_capacity"`
	Draining      bool `json:"draining"`
	Sessions      int  `json:"sessions"`
	Inflight      int  `json:"inflight"`

	Submitted    uint64 `json:"submitted"`
	Admitted     uint64 `json:"admitted"`
	Shed         uint64 `json:"shed"`
	TimedOut     uint64 `json:"timed_out"`
	Drained      uint64 `json:"drained"`
	ExecErrors   uint64 `json:"exec_errors"` // subset of Admitted that failed in the engine
	Panics       uint64 `json:"panics"`      // subset of ExecErrors: executor panics recovered
	PlaceRetries uint64 `json:"place_retries"`
	SlowQueries  uint64 `json:"slow_queries"` // resolved over the slow-query threshold

	Classes []ClassAdmissionSnapshot `json:"classes"`

	// Recent lists the last resolved submissions, newest first — the
	// request-ID + queue-wait join surface /debug/serve and
	// /debug/queries render.
	Recent []RecentRequest `json:"recent,omitempty"`
}

// RecentRequest is one resolved submission in the recent-request ring.
type RecentRequest struct {
	RequestID string  `json:"request_id"`
	Query     string  `json:"query,omitempty"` // resolved name; empty for refused submissions
	Session   string  `json:"session,omitempty"`
	Class     string  `json:"class"`
	Outcome   string  `json:"outcome"`
	WaitMs    float64 `json:"queue_wait_ms"`
	TotalMs   float64 `json:"total_ms"`
	Slow      bool    `json:"slow,omitempty"`
}

// ClassAdmissionSnapshot is one user class's admission state.
type ClassAdmissionSnapshot struct {
	Class    string `json:"class"`
	Active   int    `json:"active"`
	Limit    int    `json:"limit"`
	Queued   int    `json:"queued"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	TimedOut uint64 `json:"timed_out"`
	Drained  uint64 `json:"drained"`

	// Queue-wait distribution (admission wait only, not execution).
	WaitBuckets []monitor.HistBucket `json:"-"`
	WaitSum     float64              `json:"wait_sum_seconds"`
	WaitCount   uint64               `json:"wait_count"`

	// End-to-end wall-latency distribution (submit→resolve) and the
	// class's SLO parameters; the blu_slo_* burn-rate gauges derive
	// from these. Objective 0 means no SLO is configured.
	WallBuckets  []monitor.HistBucket `json:"-"`
	WallSum      float64              `json:"wall_sum_seconds"`
	WallCount    uint64               `json:"wall_count"`
	SLOThreshold float64              `json:"slo_threshold_seconds,omitempty"`
	SLOObjective float64              `json:"slo_objective,omitempty"`
}

// collectAdmission emits the blu_serve_* family from one snapshot.
func collectAdmission(r *Registry, a *AdmissionSnapshot) {
	r.Gauge("blu_serve_queue_depth", "Queries waiting in the admission queue.").With().Set(float64(a.QueueDepth))
	r.Gauge("blu_serve_queue_capacity", "Effective admission-queue capacity (halved while the fleet is unhealthy).").With().Set(float64(a.EffectiveCap))
	draining := 0.0
	if a.Draining {
		draining = 1
	}
	r.Gauge("blu_serve_draining", "Whether the server is draining (1) or admitting (0).").With().Set(draining)
	r.Gauge("blu_serve_sessions", "Live client sessions.").With().Set(float64(a.Sessions))
	r.Gauge("blu_serve_inflight", "Admitted queries currently executing.").With().Set(float64(a.Inflight))

	r.Counter("blu_serve_submitted_total", "Queries submitted to the admission queue.").With().AddUint(a.Submitted)
	outcomes := r.Counter("blu_serve_queries_total", "Submitted queries by terminal outcome; outcomes partition submissions exactly.")
	outcomes.With(L("outcome", "admitted")).AddUint(a.Admitted)
	outcomes.With(L("outcome", "shed")).AddUint(a.Shed)
	outcomes.With(L("outcome", "timed_out")).AddUint(a.TimedOut)
	outcomes.With(L("outcome", "drained")).AddUint(a.Drained)
	r.Counter("blu_serve_exec_errors_total", "Admitted queries that failed in parse/plan/execution (still counted as admitted).").With().AddUint(a.ExecErrors)
	r.Counter("blu_serve_panics_total", "Executor panics the serving layer recovered into a query error (subset of exec errors).").With().AddUint(a.Panics)
	r.Counter("blu_serve_place_retries_total", "Pre-execution placement backoff retries taken while the fleet was unhealthy.").With().AddUint(a.PlaceRetries)
	r.Counter("blu_serve_slow_queries_total", "Submissions that resolved over the slow-query wall-clock threshold.").With().AddUint(a.SlowQueries)

	active := r.Gauge("blu_serve_class_active", "Admitted queries executing, by user class.")
	limit := r.Gauge("blu_serve_class_limit", "Per-class concurrency limit.")
	queued := r.Gauge("blu_serve_class_queued", "Queries waiting in the admission queue, by user class.")
	classOutcomes := r.Counter("blu_serve_class_queries_total", "Submitted queries by user class and terminal outcome.")
	wait := r.Histogram("blu_serve_wait_seconds", "Admission-queue wait before execution, by user class.")
	wall := r.Histogram("blu_serve_wall_seconds", "End-to-end wall-clock latency (submit to resolve), by user class.")
	for _, c := range a.Classes {
		lbl := L("class", c.Class)
		active.With(lbl).Set(float64(c.Active))
		limit.With(lbl).Set(float64(c.Limit))
		queued.With(lbl).Set(float64(c.Queued))
		classOutcomes.With(lbl, L("outcome", "admitted")).AddUint(c.Admitted)
		classOutcomes.With(lbl, L("outcome", "shed")).AddUint(c.Shed)
		classOutcomes.With(lbl, L("outcome", "timed_out")).AddUint(c.TimedOut)
		classOutcomes.With(lbl, L("outcome", "drained")).AddUint(c.Drained)
		if c.WaitCount > 0 {
			wait.With(lbl).SetCumulative(c.WaitBuckets, c.WaitSum, c.WaitCount)
		}
		if c.WallCount > 0 {
			wall.With(lbl).SetCumulative(c.WallBuckets, c.WallSum, c.WallCount)
		}
	}
	collectSLO(r, a)
}
