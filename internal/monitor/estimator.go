package monitor

import (
	"sort"

	"blugpu/internal/vtime"
)

// DecisionStats counts the Figure-3 optimizer outcomes recorded under
// one (decision, reason) pair — the placement-policy breakdown behind
// blu_optimizer_decisions_total.
type DecisionStats struct {
	Decision string
	Reason   string
	Count    uint64
}

// KMVErrorStats summarizes the KMV group-count estimator's relative
// error |estimated-actual|/actual across every group-by that ran: the
// estimate-accountability numbers EXPLAIN ANALYZE and the Prometheus
// blu_kmv_relative_error histogram are built from.
type KMVErrorStats struct {
	Count   uint64
	Sum     float64 // sum of relative errors
	Max     float64
	Buckets []HistBucket
}

// RecordDecision tallies one optimizer path decision (e.g. "gpu",
// "eligible") at group-by execution time.
func (m *Monitor) RecordDecision(decision, reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.decisions == nil {
		m.decisions = make(map[[2]string]uint64)
	}
	m.decisions[[2]string{decision, reason}]++
}

// Decisions returns the optimizer decision counts sorted by decision
// then reason, so exports are deterministic.
func (m *Monitor) Decisions() []DecisionStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]DecisionStats, 0, len(m.decisions))
	for k, n := range m.decisions {
		out = append(out, DecisionStats{Decision: k[0], Reason: k[1], Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Decision != out[j].Decision {
			return out[i].Decision < out[j].Decision
		}
		return out[i].Reason < out[j].Reason
	})
	return out
}

// RecordKMVError records one group-by's estimator relative error. The
// value is dimensionless; it reuses the log-scale histogram machinery,
// which covers ratios just as well as latencies.
func (m *Monitor) RecordKMVError(relErr float64) {
	if relErr < 0 {
		relErr = -relErr
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// vtime.Duration is a bare float64 of seconds, so a ratio maps onto
	// it losslessly: bucket upper bounds come back out as plain ratios.
	m.kmvErr.Observe(vtime.Duration(relErr))
}

// KMVError returns the estimator relative-error summary.
func (m *Monitor) KMVError() KMVErrorStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return KMVErrorStats{
		Count:   m.kmvErr.Count(),
		Sum:     m.kmvErr.Total().Seconds(),
		Max:     m.kmvErr.Max().Seconds(),
		Buckets: m.kmvErr.Buckets(),
	}
}
