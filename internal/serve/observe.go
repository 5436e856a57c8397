package serve

import (
	"errors"
	"sort"
	"time"

	"blugpu/internal/engine"
	"blugpu/internal/metrics"
	"blugpu/internal/trace"
	"blugpu/internal/workload"
)

// slo is one user class's wall-latency objective: at least objective
// (a fraction, e.g. 0.99) of submissions should resolve end-to-end
// within threshold. The metrics layer turns the observed wall-latency
// distribution against these targets into error-budget burn-rate
// gauges (blu_slo_*). Wall latency is real time — the SLO surface is
// informational and never gated, unlike the modeled-time benchmarks.
type slo struct {
	threshold time.Duration
	objective float64
}

// classSLOs are deliberately loose: the modeled engine runs queries
// in microseconds of real time, so these only trip under genuine
// saturation or pathological host load.
var classSLOs = map[workload.Class]slo{
	workload.Simple:       {threshold: 50 * time.Millisecond, objective: 0.99},
	workload.Intermediate: {threshold: 200 * time.Millisecond, objective: 0.95},
	workload.Complex:      {threshold: time.Second, objective: 0.90},
}

// dequeueWindow bounds the per-class dequeue-timestamp ring the
// Retry-After derivation reads. 32 stamps per class is enough signal
// for a rate estimate while staying O(1) per admit.
const dequeueWindow = 32

// retryAfterBounds clamp the derived Retry-After hint: never less than
// a second (the HTTP header granularity) and never parking a client
// for more than a minute.
const (
	retryAfterMin = time.Second
	retryAfterMax = time.Minute
)

// noteDequeueLocked stamps one admission for the Retry-After rate
// estimate. Caller holds s.mu.
func (s *Server) noteDequeueLocked(c workload.Class) {
	q := append(s.dequeues[c], s.clock())
	if len(q) > dequeueWindow {
		q = q[len(q)-dequeueWindow:]
	}
	s.dequeues[c] = q
}

// retryAfterLocked derives the Retry-After hint a shed response
// carries from the current queue depth and the recently observed
// dequeue rate across all classes. Caller holds s.mu.
func (s *Server) retryAfterLocked() time.Duration {
	var stamps []time.Time
	for _, c := range classOrder {
		stamps = append(stamps, s.dequeues[c]...)
	}
	return retryAfterHint(s.queueDepthLocked(), stamps, s.clock(), retryAfterFallback)
}

// retryAfterHint estimates how long a shed client should wait before
// retrying: the time the server needs to dequeue one full queue at the
// recently observed dequeue rate (depth+1 admissions, so a retry lands
// behind the work already queued), clamped to [1s, 60s]. With fewer
// than two recent dequeues there is no rate signal and the configured
// fallback applies — a cold or stalled server should not advertise an
// optimistic hint it cannot honor.
func retryAfterHint(depth int, stamps []time.Time, now time.Time, fallback time.Duration) time.Duration {
	if len(stamps) < 2 {
		return clampRetryAfter(fallback)
	}
	oldest := stamps[0]
	for _, t := range stamps[1:] {
		if t.Before(oldest) {
			oldest = t
		}
	}
	window := now.Sub(oldest)
	if window <= 0 {
		return clampRetryAfter(fallback)
	}
	rate := float64(len(stamps)) / window.Seconds() // dequeues per second
	wait := time.Duration(float64(depth+1) / rate * float64(time.Second))
	return clampRetryAfter(wait)
}

func clampRetryAfter(d time.Duration) time.Duration {
	if d < retryAfterMin {
		return retryAfterMin
	}
	if d > retryAfterMax {
		return retryAfterMax
	}
	return d
}

// recentKeep bounds the recent-request ring /debug/serve and
// /debug/queries render.
const recentKeep = 32

// pushRecentLocked retains one resolved submission for the debug
// surfaces. Caller holds s.mu.
func (s *Server) pushRecentLocked(rr metrics.RecentRequest) {
	s.recent = append(s.recent, rr)
	if len(s.recent) > recentKeep {
		s.recent = s.recent[len(s.recent)-recentKeep:]
	}
}

// spanDigest summarizes one query's span subtree for the query log:
// the distinct device IDs touched, total PCIe bytes moved, and the
// first GPU→CPU fallback cause (empty when no fallback happened).
func spanDigest(spans []trace.Span) (devices []int, transferBytes int64, fallback string) {
	seen := map[int]bool{}
	for _, sp := range spans {
		for _, a := range sp.Attrs {
			switch {
			case a.Key == "device" && a.IsInt:
				if !seen[int(a.Int)] {
					seen[int(a.Int)] = true
					devices = append(devices, int(a.Int))
				}
			case a.Key == "bytes" && a.IsInt && sp.Cat == "transfer":
				transferBytes += a.Int
			case a.Key == "fallback" && fallback == "":
				fallback = a.Str
			}
		}
	}
	sort.Ints(devices)
	return devices, transferBytes, fallback
}

// captureTrace moves the query's span subtree out of the executor's
// tracer into the live ring, so in a serving process the bounded ring is
// the only long-term holder of spans — whatever the query's outcome: a
// failed or canceled execution names its subtree through the
// engine.QueryError it returns. It runs after the inline-EXPLAIN report
// has read the same spans. The serving layer reaches the tracer via a
// runtime capability check rather than widening Executor — stub
// executors in tests simply have no traces to retain.
func (s *Server) captureTrace(sub *submission) []trace.Span {
	var seq uint64
	var qe *engine.QueryError
	if sub.Result != nil {
		seq = sub.Result.TraceSeq
	} else if errors.As(sub.err, &qe) {
		seq = qe.TraceSeq
	}
	if seq == 0 {
		return nil
	}
	tp, ok := s.exec.(interface{ Tracer() *trace.Tracer })
	if !ok {
		return nil
	}
	tr := tp.Tracer()
	if tr == nil {
		return nil
	}
	spans := tr.TakeQuery(seq)
	if len(spans) == 0 {
		return nil
	}
	s.ring.Add(trace.RingEntry{
		RequestID: sub.RequestID,
		Query:     sub.Query,
		Session:   sub.Session,
		Class:     string(sub.Class),
		Seq:       seq,
		Wall:      sub.total,
		At:        s.clock(),
		Slow:      sub.Slow,
		Spans:     spans,
	})
	return spans
}

// TraceRing exposes the live trace ring (nil before New).
func (s *Server) TraceRing() *trace.Ring { return s.ring }
