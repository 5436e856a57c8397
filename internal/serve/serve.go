// Package serve is the admission-controlled query-serving layer: a
// bounded queue in front of the engine with per-user-class concurrency
// limits and weighted dequeue, per-query deadlines, load shedding tied
// to queue depth and circuit-breaker health, and graceful drain.
//
// The paper drives its hybrid engine with JMeter multi-user BD Insights
// mixes; this package is the server side of that story — the piece that
// keeps hundreds of concurrent analysts from trampling the scheduler
// while every admitted query still returns exactly the result the
// unloaded engine would.
//
// A request is one submission record carried through five phases — the
// door (count, resolve the ID, shed or enqueue), the queue (wait for the
// weighted pump to grant a class slot, unless the caller gives up or
// drain flushes it first), the slot (deadline, cancel registration,
// breaker-aware backoff), the executor (the engine call, a panic
// recovered into the query's error, the slot released) and the
// serializer (the client's encoding, timed) — and settled once:
// settleLocked decides the outcome under the server mutex the moment it
// is known, the only place a ledger counter moves; publish projects the
// finished record into every sink (recent list, histograms, trace ring,
// query log), so no exit copies facts out by hand.
//
// Accounting is double-entry: every submission resolves to exactly one
// of four outcomes — admitted (ran to a terminal non-deadline state,
// successful or not), shed (refused at the door), timed_out (deadline
// or caller cancellation, queued or mid-execution), drained (flushed
// from the queue at drain start) — so
//
//	submitted == admitted + shed + timed_out + drained
//
// once the server is idle. The saturation tests and `blucheck serve` assert
// this both on the Server's own counters and on the /metrics scrape.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"blugpu/internal/engine"
	"blugpu/internal/explain"
	"blugpu/internal/metrics"
	"blugpu/internal/monitor"
	"blugpu/internal/prof"
	"blugpu/internal/qlog"
	"blugpu/internal/sched"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

// Executor is the slice of the engine API the serving layer drives.
// *engine.Engine satisfies it; tests substitute blocking stubs to pin
// drain and timeout behavior deterministically. Implementations must
// honor ctx cancellation — the engine checks it between operators.
type Executor interface {
	QueryNamedCtxAttrs(ctx context.Context, name, sql string, attrs ...trace.Attr) (*engine.Result, error)
	ExplainAnalyzeNamedCtx(ctx context.Context, name, sql string, attrs ...trace.Attr) (*explain.Report, *engine.Result, error)
	Scheduler() *sched.Scheduler
}

// classOrder fixes the iteration order everywhere state is walked, so
// snapshots and dequeue tie-breaks are deterministic.
var classOrder = []workload.Class{workload.Simple, workload.Intermediate, workload.Complex}

// The fixed parts of the policy; nothing ever set them otherwise.
const (
	placeRetries       = 2                      // backoff retries before execution while the fleet is unhealthy
	placeBackoff       = 200 * time.Microsecond // the first retry's wall-clock pause, doubling
	retryAfterFallback = time.Second            // shed hint when there is no recent dequeue rate to derive one from
	traceRingSize      = 64                     // live ring of recent query traces
	slowTraceKeep      = 16                     // retained top-K slow traces
	maxSessions        = 1024                   // session IDs are client input: past this, least-recently-seen out
)

// Config tunes the admission controller. Zero values take defaults.
type Config struct {
	// QueueCapacity bounds the total queued (not yet executing) queries
	// across all classes. While the fleet is unhealthy (every breaker
	// open) the effective capacity halves, shedding earlier.
	QueueCapacity int
	// ClassLimits caps concurrently executing queries per class.
	ClassLimits map[workload.Class]int
	// ClassWeights drive the smooth weighted round-robin dequeue; a
	// class with weight 4 is picked twice as often as one with 2 when
	// both have queued work and free slots.
	ClassWeights map[workload.Class]int
	// DrainDeadline bounds Drain's wait for in-flight queries before it
	// force-cancels them.
	DrainDeadline time.Duration
	// SlowQuery is the end-to-end wall-clock threshold above which a
	// query is forced into the slow-trace set and logged as a
	// slow_query event. 0 takes the 250ms default; negative disables.
	SlowQuery time.Duration
	// Log receives one structured record per resolved submission (all
	// five outcomes); nil disables query logging.
	Log *qlog.Logger
	// Prof receives per-class, per-phase resource attribution (wall
	// time, pprof-labeled CPU samples, allocation deltas) for every
	// admitted query; nil disables attribution. The accountant's wall
	// columns reconcile exactly against the query log's phase fields —
	// both are fed the same measured durations.
	Prof *prof.Accountant
	// Clock overrides the wall clock for queue-wait stamps, session
	// stamps and the Retry-After rate window; tests pin it. nil takes
	// time.Now. The server reads it from concurrent request goroutines,
	// so injected clocks must be safe for concurrent use.
	// Execution-phase timings always use the real clock.
	Clock func() time.Time
	// PagesFiring, when set, reports how many severity-page alert rules
	// are currently firing (the obsd rule engine's hook). Any firing
	// page alert halves effective admission capacity exactly as the
	// all-breakers-open unhealthy state does, so operator-declared
	// alerts and built-in breaker health shed on the same signal. Must
	// be safe for concurrent use and must not call back into the
	// server.
	PagesFiring func() int
}

func (c Config) withDefaults() Config {
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.ClassLimits == nil {
		c.ClassLimits = map[workload.Class]int{
			workload.Simple: 8, workload.Intermediate: 4, workload.Complex: 2,
		}
	}
	if c.ClassWeights == nil {
		c.ClassWeights = map[workload.Class]int{
			workload.Simple: 4, workload.Intermediate: 2, workload.Complex: 1,
		}
	}
	if c.DrainDeadline <= 0 {
		c.DrainDeadline = 5 * time.Second
	}
	if c.SlowQuery == 0 {
		c.SlowQuery = 250 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Request is one query submission.
type Request struct {
	// Session identifies the client session; empty creates/uses the
	// anonymous session "".
	Session string
	// SQL is the statement to run.
	SQL string
	// Class pins the user class; empty classifies heuristically from
	// the SQL shape.
	Class workload.Class
	// Name names the query in traces and the monitor (empty picks
	// "serve-<n>").
	Name string
	// Explain additionally returns the EXPLAIN ANALYZE decision audit;
	// admission, attribution and logging are those of a plain request.
	// Explain runs wait on each other: the engine serializes the audited
	// epoch, because the audit's counter deltas are not concurrency-safe.
	Explain bool
	// Deadline bounds this query's end-to-end time (queue wait +
	// execution). 0 = unbounded.
	Deadline time.Duration
	// RequestID correlates this submission across the query log, the
	// live trace ring, the trace spans, and the EXPLAIN ANALYZE report.
	// Empty generates a stable "blu-<n>" ID from the submission
	// counter. The HTTP layer feeds X-Request-ID through here.
	RequestID string
	// Serialize, when set, renders the response for the client and
	// returns the encoded byte count; the server times the call so the
	// query log's serialize phase covers real encoding work, not an
	// estimate. Only invoked on success.
	Serialize func(*Response) (int, error)
}

// Response is one admitted query's outcome.
type Response struct {
	Session      string
	Query        string // resolved query name
	RequestID    string // honored or generated request ID
	Class        workload.Class
	Result       *engine.Result
	Report       *explain.Report // non-nil only for Explain requests
	Wait         time.Duration   // admission-queue wait
	ExecWall     time.Duration   // wall-clock execution time
	PlaceRetries int
	Phases       qlog.Phases // wall-clock phase breakdown (post-serialize)
	Slow         bool        // over Config.SlowQuery end-to-end
}

// RefusedError reports a submission the admission controller turned
// away: shed on queue depth/breaker state, refused during drain, or
// flushed by drain while queued.
type RefusedError struct {
	Reason     string // queue_full | queue_full_unhealthy | draining | drained
	Draining   bool
	RetryAfter time.Duration
	RequestID  string // the ID the refusal is logged under
}

func (e *RefusedError) Error() string {
	return fmt.Sprintf("serve: query refused (%s), retry after %s", e.Reason, e.RetryAfter)
}

// requestError carries the resolved request ID out of Do with any error
// that is not a refusal; it reads and unwraps exactly like its cause.
type requestError struct {
	id  string
	err error
}

func (e *requestError) Error() string { return e.err.Error() }
func (e *requestError) Unwrap() error { return e.err }

// SessionInfo is one session's public state.
type SessionInfo struct {
	ID        string         `json:"id"`
	Queries   uint64         `json:"queries"`
	LastClass workload.Class `json:"last_class,omitempty"`
	Created   time.Time      `json:"created"`
	LastSeen  time.Time      `json:"last_seen"`
}

// DrainReport summarizes one Drain call.
type DrainReport struct {
	Flushed       int           `json:"flushed"`        // queued queries resolved as drained
	ForcedCancels int           `json:"forced_cancels"` // in-flight queries canceled at the deadline
	Waited        time.Duration `json:"waited"`
}

// submission is the one record of a request, filled in phase by phase;
// the embedded Response is the part a successful caller gets back. It is
// also the queue entry: ready is closed exactly once — the pump grants
// the slot, drain flushes it or its caller abandons it — and the latter
// two are settled under the server mutex first, so the waiter reads which.
type submission struct {
	Response
	req             Request
	seq             uint64 // submission number; in generated IDs and names
	start, enqueued time.Time
	ready           chan struct{}

	executed        bool   // got a slot
	outcome, reason string // qlog.Outcome* (empty until settled); refusal or abandonment reason

	admission, serialize, total time.Duration
	panicked                    bool
	err                         error // the cause: the caller's ctx error while queued, or the executor's
	serErr                      error // Request.Serialize's, after a successful execution
	resultBytes                 int
	retryAfter                  time.Duration
}

type classCounters struct {
	admitted, shed, timedOut, drained uint64
}

// Server is the admission controller. Safe for concurrent use.
type Server struct {
	cfg  Config
	exec Executor

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when active work completes
	queues   map[workload.Class][]*submission
	cw       map[workload.Class]int // smooth-WRR current weights
	active   map[workload.Class]int
	cancels  map[*submission]context.CancelFunc
	sessions map[string]*SessionInfo
	draining bool
	forced   bool // drain deadline passed; cancel on registration

	submitted    uint64
	admitted     uint64
	shed         uint64
	timedOut     uint64
	drained      uint64
	execErrors   uint64
	panics       uint64 // subset of execErrors: executor panics recovered
	placeRetries uint64
	slowQueries  uint64
	classCounts  map[workload.Class]*classCounters
	waitHists    map[workload.Class]*monitor.Hist
	wallHists    map[workload.Class]*monitor.Hist // end-to-end wall latency (SLO input)
	dequeues     map[workload.Class][]time.Time   // recent admit stamps (Retry-After input)
	recent       []metrics.RecentRequest          // resolved submissions, oldest first

	clock func() time.Time
	ring  *trace.Ring // live sampled trace retention
}

// New builds a Server over an executor.
func New(exec Executor, cfg Config) (*Server, error) {
	if exec == nil {
		return nil, errors.New("serve: nil executor")
	}
	s := &Server{
		cfg:         cfg.withDefaults(),
		exec:        exec,
		queues:      make(map[workload.Class][]*submission),
		cw:          make(map[workload.Class]int),
		active:      make(map[workload.Class]int),
		cancels:     make(map[*submission]context.CancelFunc),
		sessions:    make(map[string]*SessionInfo),
		classCounts: make(map[workload.Class]*classCounters),
		waitHists:   make(map[workload.Class]*monitor.Hist),
		wallHists:   make(map[workload.Class]*monitor.Hist),
		dequeues:    make(map[workload.Class][]time.Time),
	}
	s.clock = s.cfg.Clock
	s.ring = trace.NewRing(traceRingSize, slowTraceKeep)
	s.cond = sync.NewCond(&s.mu)
	for _, c := range classOrder {
		s.classCounts[c] = &classCounters{}
		s.waitHists[c] = &monitor.Hist{}
		s.wallHists[c] = &monitor.Hist{}
	}
	return s, nil
}

// Classify buckets a statement into a user class by shape: joins and
// window functions weigh heaviest, then grouping and sheer length. It
// is a heuristic for requests that do not pin a class; the workload
// driver always pins the class from the benchmark definition.
func Classify(sql string) workload.Class {
	u := strings.ToUpper(sql)
	score := 2 * strings.Count(u, " JOIN ")
	score += 2 * strings.Count(u, "OVER (")
	score += 2 * strings.Count(u, "OVER(")
	if strings.Contains(u, "GROUP BY") {
		score++
	}
	score += len(sql) / 300
	switch {
	case score >= 5:
		return workload.Complex
	case score >= 2:
		return workload.Intermediate
	default:
		return workload.Simple
	}
}

func (s *Server) limit(c workload.Class) int  { return s.cfg.ClassLimits[c] }
func (s *Server) weight(c workload.Class) int { return s.cfg.ClassWeights[c] }

func (s *Server) queueDepthLocked() int {
	n := 0
	for _, c := range classOrder {
		n += len(s.queues[c])
	}
	return n
}

func (s *Server) activeTotalLocked() int {
	n := 0
	for _, c := range classOrder {
		n += s.active[c]
	}
	return n
}

// effectiveCapLocked is the live queue bound: the configured capacity,
// halved (min 1) while the process is unhealthy — every device breaker
// open, or a severity-page alert firing. It is the same degradation
// signal /healthz serves to load balancers.
func (s *Server) effectiveCapLocked() int {
	cap := s.cfg.QueueCapacity
	if s.healthLocked() == metrics.HealthUnhealthy {
		if cap /= 2; cap < 1 {
			cap = 1
		}
	}
	return cap
}

// healthLocked combines breaker-fleet health with the alert engine's
// firing page count (when wired).
func (s *Server) healthLocked() string {
	pages := 0
	if s.cfg.PagesFiring != nil {
		pages = s.cfg.PagesFiring()
	}
	return metrics.HealthStatusWith(s.exec.Scheduler(), pages)
}

// touchSessionLocked stamps one submission on its session; a new ID
// past maxSessions evicts the least-recently-seen entry.
func (s *Server) touchSessionLocked(id string, class workload.Class) {
	now := s.clock()
	sess := s.sessions[id]
	if sess == nil {
		if len(s.sessions) >= maxSessions {
			var oldest *SessionInfo
			for _, cand := range s.sessions {
				if oldest == nil || cand.LastSeen.Before(oldest.LastSeen) {
					oldest = cand
				}
			}
			delete(s.sessions, oldest.ID)
		}
		sess = &SessionInfo{ID: id, Created: now}
		s.sessions[id] = sess
	}
	sess.Queries++
	sess.LastClass = class
	sess.LastSeen = now
}

// pumpLocked admits queued submissions while any class has both queued
// work and a free slot, picking classes by smooth weighted round-robin:
// each eligible class's current weight grows by its configured weight,
// the maximum wins and pays back the eligible total. Interleaving follows
// the weight ratios without starving any class that has capacity.
func (s *Server) pumpLocked() {
	if s.draining {
		return
	}
	for {
		total := 0
		best := workload.Class("")
		bestW := math.MinInt
		for _, c := range classOrder {
			if len(s.queues[c]) == 0 || s.active[c] >= s.limit(c) {
				continue
			}
			total += s.weight(c)
			s.cw[c] += s.weight(c)
			if s.cw[c] > bestW {
				bestW, best = s.cw[c], c
			}
		}
		if best == "" {
			return
		}
		s.cw[best] -= total
		sub := s.queues[best][0]
		s.queues[best] = s.queues[best][1:]
		s.active[best]++
		s.noteDequeueLocked(best)
		close(sub.ready)
	}
}

// removeQueuedLocked pulls sub out of its class queue; false means it
// was already resolved (granted a slot or flushed by drain).
func (s *Server) removeQueuedLocked(sub *submission) bool {
	q := s.queues[sub.Class]
	for i, cand := range q {
		if cand == sub {
			s.queues[sub.Class] = append(q[:i:i], q[i+1:]...)
			return true
		}
	}
	return false
}

// Do submits one query and blocks until it resolves. Refusals return
// *RefusedError; deadline and cancellation surface the context error;
// everything else executed — the response carries the result, or the
// engine/parse error is returned (still an admitted submission). Every
// error of a counted submission carries the ID it was logged under.
func (s *Server) Do(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if strings.TrimSpace(req.SQL) == "" {
		return nil, errors.New("serve: empty SQL")
	}
	class := req.Class
	if class == "" {
		class = Classify(req.SQL)
	}
	if !slices.Contains(classOrder, class) {
		return nil, fmt.Errorf("serve: unknown class %q", class)
	}
	sub := &submission{Response: Response{Session: req.Session, Class: class}, req: req, start: s.clock()}
	if s.enter(sub) && s.awaitSlot(ctx, sub) {
		s.run(ctx, sub)
	}
	s.publish(sub)
	return sub.result()
}

// enter is the door: it counts the submission, resolves its request ID
// and either sheds it (false: settled) or enqueues it and runs the pump.
func (s *Server) enter(sub *submission) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.submitted++
	sub.seq = s.submitted
	if sub.RequestID = sub.req.RequestID; sub.RequestID == "" {
		sub.RequestID = fmt.Sprintf("blu-%06d", sub.seq)
	}
	s.touchSessionLocked(sub.Session, sub.Class)
	reason := ""
	if s.draining {
		reason = "draining"
	} else if s.queueDepthLocked() >= s.effectiveCapLocked() {
		reason = "queue_full"
		if s.healthLocked() == metrics.HealthUnhealthy {
			reason = "queue_full_unhealthy"
		}
	}
	if reason != "" {
		s.settleLocked(sub, qlog.OutcomeShed, reason)
		return false
	}
	sub.ready = make(chan struct{})
	sub.enqueued = s.clock()
	s.queues[sub.Class] = append(s.queues[sub.Class], sub)
	s.pumpLocked()
	return true
}

// awaitSlot is the queue: it blocks until the pump grants sub a slot
// (true) or sub is settled without one — abandoned by its caller, or
// flushed by drain.
func (s *Server) awaitSlot(ctx context.Context, sub *submission) bool {
	select {
	case <-sub.ready:
	case <-ctx.Done():
		s.mu.Lock()
		if s.removeQueuedLocked(sub) {
			s.settleLocked(sub, qlog.OutcomeTimedOut, "abandoned_queued")
			sub.err = ctx.Err()
			close(sub.ready)
		}
		s.mu.Unlock()
		// Abandoned just now, or resolved concurrently with the cancellation:
		// follow the resolution — a granted slot is still owed its release.
		<-sub.ready
	}
	sub.Wait = s.clock().Sub(sub.enqueued)
	return sub.outcome == ""
}

// run carries a submission that was granted a slot through the slot,
// executor and serializer phases.
func (s *Server) run(ctx context.Context, sub *submission) {
	sub.executed = true
	if sub.Query = sub.req.Name; sub.Query == "" {
		sub.Query = fmt.Sprintf("serve-%d", sub.seq)
	}
	// The request ID rides the context into the engine: it lands on the
	// query's root trace span and the EXPLAIN ANALYZE report, so the
	// log, the trace ring, and the audit all join on one key. The prof
	// labels ride the same context so every engine phase bills its CPU
	// samples and allocation deltas to this class and request.
	ctx = qlog.WithRequestID(ctx, sub.RequestID)
	ctx = prof.WithRequest(ctx, s.cfg.Prof, string(sub.Class), sub.RequestID)
	s.cfg.Prof.AddWall(string(sub.Class), "queue_wait", sub.Wait)
	var execCtx context.Context
	var cancel context.CancelFunc
	if sub.req.Deadline > 0 {
		execCtx, cancel = context.WithTimeout(ctx, sub.req.Deadline)
	} else {
		execCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	s.mu.Lock()
	s.cancels[sub] = cancel
	if s.forced {
		cancel() // drain deadline already passed; don't start real work
	}
	s.mu.Unlock()

	s.backoff(execCtx, sub)
	s.call(execCtx, sub)
	s.release(sub)
	s.serialize(ctx, sub)
}

// backoff is the breaker-aware admission phase: while every device is
// quarantined, give the fleet a bounded chance to re-close a breaker
// (virtual time advances as other queries execute) before running —
// the CPU fallback guarantees the query completes either way.
func (s *Server) backoff(ctx context.Context, sub *submission) {
	sub.admission, _ = prof.Phase(ctx, "admission", func(context.Context) error {
		pause := placeBackoff
		for sub.PlaceRetries < placeRetries && ctx.Err() == nil &&
			metrics.HealthStatus(s.exec.Scheduler()) == metrics.HealthUnhealthy {
			select {
			case <-ctx.Done():
				continue // deadline or drain: the loop condition ends the backoff
			case <-time.After(pause):
			}
			pause *= 2
			sub.PlaceRetries++
		}
		return nil
	})
}

// call is the executor phase. A panicking executor must not take the
// slot with it: recover turns the panic into this query's error, so the
// release and the settlement run as for any other failed execution.
func (s *Server) call(ctx context.Context, sub *submission) {
	attrs := []trace.Attr{
		trace.Str("serve.class", string(sub.Class)),
		trace.Str("serve.session", sub.Session),
		trace.Int("serve.wait_us", sub.Wait.Microseconds()),
		trace.Int("serve.place_retries", int64(sub.PlaceRetries)),
	}
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			sub.panicked = true
			sub.Result, sub.Report, sub.err = nil, nil, fmt.Errorf("panic: %v", r)
		}
		sub.ExecWall = time.Since(start)
	}()
	if sub.req.Explain {
		sub.Report, sub.Result, sub.err = s.exec.ExplainAnalyzeNamedCtx(ctx, sub.Query, sub.req.SQL, attrs...)
	} else {
		sub.Result, sub.err = s.exec.QueryNamedCtxAttrs(ctx, sub.Query, sub.req.SQL, attrs...)
	}
}

// release gives the slot back and settles the execution's outcome in
// the same critical section, so Drain — which waits for the last slot —
// returns with the ledger balanced.
func (s *Server) release(sub *submission) {
	outcome := qlog.OutcomeOK
	switch {
	case errors.Is(sub.err, context.Canceled) || errors.Is(sub.err, context.DeadlineExceeded):
		outcome = qlog.OutcomeTimedOut
	case sub.err != nil:
		outcome = qlog.OutcomeError
	}
	s.mu.Lock()
	delete(s.cancels, sub)
	s.active[sub.Class]--
	s.placeRetries += uint64(sub.PlaceRetries)
	if sub.panicked {
		s.panics++
	}
	s.settleLocked(sub, outcome, "")
	s.pumpLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// serialize is the last phase of a successful execution: the client's
// encoding, timed so the log's serialize phase covers the real cost. The
// slot is already released (encoding is client work) and the ledger counts
// the query admitted; a failed encoding only makes its logged outcome an error.
func (s *Server) serialize(ctx context.Context, sub *submission) {
	if sub.err != nil || sub.req.Serialize == nil {
		return
	}
	sub.serialize, sub.serErr = prof.Phase(ctx, "serialize", func(context.Context) error {
		var err error
		sub.resultBytes, err = sub.req.Serialize(&sub.Response)
		return err
	})
	if sub.serErr != nil {
		sub.outcome = qlog.OutcomeError
	}
}

// settleLocked decides sub's outcome — the one place a ledger counter
// moves. Callers hold s.mu at the moment the outcome is known (the door,
// the abandoned wait, the drain flush, the slot release), so the four
// counters always partition the submissions neither queued nor executing.
func (s *Server) settleLocked(sub *submission, outcome, reason string) {
	sub.outcome, sub.reason = outcome, reason
	cc := s.classCounts[sub.Class]
	switch outcome {
	case qlog.OutcomeShed:
		s.shed++
		cc.shed++
	case qlog.OutcomeTimedOut:
		s.timedOut++
		cc.timedOut++
	case qlog.OutcomeDrained:
		s.drained++
		cc.drained++
	default: // ok | error: ran to a terminal non-deadline state
		s.admitted++
		cc.admitted++
	}
}

// publish projects the settled record into every sink, once: trace ring,
// wait/wall histograms (executed requests only), recent list, query log.
func (s *Server) publish(sub *submission) {
	sub.total = s.clock().Sub(sub.start)
	sub.Slow = sub.executed && s.cfg.SlowQuery > 0 && sub.total >= s.cfg.SlowQuery
	sub.Phases = sub.phases()
	spans := s.captureTrace(sub)

	s.mu.Lock()
	if sub.executed {
		s.waitHists[sub.Class].Observe(vtime.Duration(sub.Wait.Seconds()))
		s.wallHists[sub.Class].Observe(vtime.Duration(sub.total.Seconds()))
	} else if sub.outcome != qlog.OutcomeTimedOut { // refused: shed or drained
		sub.retryAfter = s.retryAfterLocked()
	}
	if sub.Slow {
		s.slowQueries++
	}
	if sub.outcome == qlog.OutcomeError {
		s.execErrors++
	}
	s.pushRecentLocked(metrics.RecentRequest{
		RequestID: sub.RequestID, Query: sub.Query, Session: sub.Session, Class: string(sub.Class),
		Outcome: sub.outcome, WaitMs: qlog.Ms(sub.Wait), TotalMs: qlog.Ms(sub.total), Slow: sub.Slow,
	})
	s.mu.Unlock()

	if s.cfg.Log == nil {
		return
	}
	devices, transferBytes, fallback := spanDigest(spans)
	rec := qlog.Record{
		Event:         qlog.EventQuery,
		RequestID:     sub.RequestID,
		Session:       sub.Session,
		Query:         sub.Query,
		Class:         string(sub.Class),
		SQL:           sub.req.SQL,
		Outcome:       sub.outcome,
		Reason:        sub.reason,
		ResultBytes:   sub.resultBytes,
		Devices:       devices,
		PlaceRetries:  sub.PlaceRetries,
		FallbackCause: fallback,
		TransferBytes: transferBytes,
		Slow:          sub.Slow,
		Phases:        sub.Phases,
		TotalMs:       qlog.Ms(sub.total),
	}
	if sub.Slow {
		rec.SlowThresholdMs = qlog.Ms(s.cfg.SlowQuery)
	}
	if cause := cmp.Or(sub.err, sub.serErr); cause != nil {
		rec.Error = cause.Error()
	}
	if res := sub.Result; res != nil {
		if res.Table != nil {
			rec.Rows = res.Table.Rows()
		}
		rec.GPUUsed = res.GPUUsed
		rec.ModeledMs = res.Modeled.Milliseconds()
	}
	s.cfg.Log.Log(rec)
	if sub.Slow {
		rec.Event = qlog.EventSlow
		s.cfg.Log.Log(rec)
	}
}

// phases is the wall-clock phase breakdown. When the engine measured its
// own phases the log takes those exact durations (the prof accountant saw
// the same values, so the two ledgers reconcile to the microsecond); on
// the error path exec_ms falls back to the whole engine call.
func (sub *submission) phases() qlog.Phases {
	ph := qlog.Phases{
		QueueWaitMs: qlog.Ms(sub.Wait),
		AdmissionMs: qlog.Ms(sub.admission),
		ExecMs:      qlog.Ms(sub.ExecWall),
		SerializeMs: qlog.Ms(sub.serialize),
	}
	if res := sub.Result; res != nil {
		ph.ParseMs = qlog.Ms(res.Wall.Parse)
		ph.PlanMs = qlog.Ms(res.Wall.Plan)
		ph.ExecMs = qlog.Ms(res.Wall.Exec)
		ph.ExecGPUMs = qlog.Ms(res.Wall.ExecGPU)
		ph.ExecHostMs = qlog.Ms(res.Wall.ExecHost)
		ph.ExecGatherMs = qlog.Ms(res.Wall.ExecGather)
	}
	return ph
}

// result is what Do returns for the settled record.
func (sub *submission) result() (*Response, error) {
	var err error
	switch {
	case sub.outcome == qlog.OutcomeShed || sub.outcome == qlog.OutcomeDrained:
		return nil, &RefusedError{Reason: sub.reason, RetryAfter: sub.retryAfter, RequestID: sub.RequestID,
			Draining: sub.reason == "draining" || sub.reason == "drained"}
	case !sub.executed:
		err = fmt.Errorf("serve: abandoned while queued: %w", sub.err)
	case sub.outcome == qlog.OutcomeTimedOut:
		err = fmt.Errorf("serve: query %s exceeded its deadline: %w", sub.Query, sub.err)
	case sub.err != nil:
		err = sub.err
	case sub.serErr != nil:
		err = fmt.Errorf("serve: serialize %s: %w", sub.Query, sub.serErr)
	default:
		return &sub.Response, nil
	}
	return nil, &requestError{id: sub.RequestID, err: err}
}

// Drain stops admission, flushes the queue (those submissions resolve
// as drained), and waits for in-flight queries to finish. In-flight
// work still running at the deadline is force-canceled (resolving as
// timed_out; the engine unwinds between operators and releases its
// reservations). Drain returns once nothing is executing. Idempotent —
// later calls just wait.
func (s *Server) Drain(deadline time.Duration) DrainReport {
	if deadline <= 0 {
		deadline = s.cfg.DrainDeadline
	}
	start := time.Now()
	var rep DrainReport

	s.mu.Lock()
	s.draining = true
	for _, c := range classOrder {
		for _, sub := range s.queues[c] {
			s.settleLocked(sub, qlog.OutcomeDrained, "drained")
			close(sub.ready)
			rep.Flushed++
		}
		s.queues[c] = nil
	}
	forced := 0 // guarded by s.mu, in the closure and the read below
	timer := time.AfterFunc(deadline, func() {
		s.mu.Lock()
		s.forced = true
		for _, cancel := range s.cancels {
			forced++
			cancel()
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	for s.activeTotalLocked() > 0 {
		s.cond.Wait()
	}
	rep.ForcedCancels = forced
	s.mu.Unlock()
	timer.Stop()

	rep.Waited = time.Since(start)
	return rep
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Sessions lists the live sessions, deterministically ordered by ID.
func (s *Server) Sessions() []SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, *sess)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AdmissionSnapshot captures the controller state for /metrics and
// /debug/serve. The outcome counters partition submissions exactly;
// unresolved (queued or executing) work is the live residue.
func (s *Server) AdmissionSnapshot() *metrics.AdmissionSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := &metrics.AdmissionSnapshot{
		QueueDepth:    s.queueDepthLocked(),
		QueueCapacity: s.cfg.QueueCapacity,
		EffectiveCap:  s.effectiveCapLocked(),
		Draining:      s.draining,
		Sessions:      len(s.sessions),
		Inflight:      s.activeTotalLocked(),
		Submitted:     s.submitted,
		Admitted:      s.admitted,
		Shed:          s.shed,
		TimedOut:      s.timedOut,
		Drained:       s.drained,
		ExecErrors:    s.execErrors,
		Panics:        s.panics,
		PlaceRetries:  s.placeRetries,
		SlowQueries:   s.slowQueries,
	}
	for _, c := range classOrder {
		cc := s.classCounts[c]
		h := s.waitHists[c]
		wh := s.wallHists[c]
		slo := classSLOs[c]
		snap.Classes = append(snap.Classes, metrics.ClassAdmissionSnapshot{
			Class:        string(c),
			Active:       s.active[c],
			Limit:        s.limit(c),
			Queued:       len(s.queues[c]),
			Admitted:     cc.admitted,
			Shed:         cc.shed,
			TimedOut:     cc.timedOut,
			Drained:      cc.drained,
			WaitBuckets:  h.Buckets(),
			WaitSum:      h.Total().Seconds(),
			WaitCount:    h.Count(),
			WallBuckets:  wh.Buckets(),
			WallSum:      wh.Total().Seconds(),
			WallCount:    wh.Count(),
			SLOThreshold: slo.threshold.Seconds(),
			SLOObjective: slo.objective,
		})
	}
	// Newest first, matching the trace ring's ordering.
	for i := len(s.recent) - 1; i >= 0; i-- {
		snap.Recent = append(snap.Recent, s.recent[i])
	}
	return snap
}
