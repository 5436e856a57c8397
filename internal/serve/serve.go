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
	"context"
	"errors"
	"fmt"
	"math"
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
	ExplainAnalyzeNamedCtx(ctx context.Context, name, sql string) (*explain.Report, *engine.Result, error)
	Scheduler() *sched.Scheduler
}

// classOrder fixes the iteration order everywhere state is walked, so
// snapshots and dequeue tie-breaks are deterministic.
var classOrder = []workload.Class{workload.Simple, workload.Intermediate, workload.Complex}

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
	// DefaultDeadline bounds each query's end-to-end time (queue wait +
	// execution) when the request carries no deadline. 0 = unbounded.
	DefaultDeadline time.Duration
	// DrainDeadline bounds Drain's wait for in-flight queries before it
	// force-cancels them.
	DrainDeadline time.Duration
	// PlaceRetries bounds the pre-execution backoff retries taken while
	// the fleet is unhealthy; after them the query runs anyway (the CPU
	// fallback path serves it).
	PlaceRetries int
	// PlaceBackoff is the first retry's wall-clock backoff (doubling).
	PlaceBackoff time.Duration
	// RetryAfter is the fallback hint returned with shed responses when
	// the server has no recent dequeue-rate signal to derive one from.
	RetryAfter time.Duration
	// SlowQuery is the end-to-end wall-clock threshold above which a
	// query is forced into the slow-trace set and logged as a
	// slow_query event. 0 takes the 250ms default; negative disables.
	SlowQuery time.Duration
	// SLOs sets per-class wall-latency objectives for the blu_slo_*
	// burn-rate gauges; nil takes loose defaults.
	SLOs map[workload.Class]SLO
	// Log receives one structured record per resolved submission (all
	// five outcomes); nil disables query logging.
	Log *qlog.Logger
	// Prof receives per-class, per-phase resource attribution (wall
	// time, pprof-labeled CPU samples, allocation deltas) for every
	// admitted query; nil disables attribution. The accountant's wall
	// columns reconcile exactly against the query log's phase fields —
	// both are fed the same measured durations.
	Prof *prof.Accountant
	// TraceRingSize bounds the live trace ring of recent query traces
	// (default 64).
	TraceRingSize int
	// SlowTraceKeep bounds the retained top-K slow-trace set
	// (default 16).
	SlowTraceKeep int
	// Clock overrides the wall clock for queue-wait stamps and the
	// Retry-After rate window; tests pin it. nil takes time.Now. The
	// server reads it from concurrent request goroutines, so injected
	// clocks must be safe for concurrent use. Execution-phase timings
	// always use the real clock.
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
	if c.PlaceRetries == 0 {
		c.PlaceRetries = 2
	}
	if c.PlaceBackoff <= 0 {
		c.PlaceBackoff = 200 * time.Microsecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.SlowQuery == 0 {
		c.SlowQuery = 250 * time.Millisecond
	}
	if c.SLOs == nil {
		c.SLOs = defaultSLOs()
	}
	if c.TraceRingSize <= 0 {
		c.TraceRingSize = 64
	}
	if c.SlowTraceKeep <= 0 {
		c.SlowTraceKeep = 16
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
	// Explain additionally returns the EXPLAIN ANALYZE decision audit.
	// Explain runs wait on each other: the engine serializes the audited
	// epoch on its own mutex (ExplainAnalyzeNamedCtx), because the
	// audit's counter deltas are not concurrency-safe.
	Explain bool
	// Deadline overrides Config.DefaultDeadline for this query.
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
}

func (e *RefusedError) Error() string {
	return fmt.Sprintf("serve: query refused (%s), retry after %s", e.Reason, e.RetryAfter)
}

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

// ticket is one queued submission. ready is closed exactly once, when
// the pump admits it or drain flushes it; which happened is recorded
// under the server mutex before the close.
type ticket struct {
	class      workload.Class
	ready      chan struct{}
	drainedOut bool
	enqueued   time.Time
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
	queues   map[workload.Class][]*ticket
	cw       map[workload.Class]int // smooth-WRR current weights
	active   map[workload.Class]int
	cancels  map[*ticket]context.CancelFunc
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
	seq          uint64

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
		queues:      make(map[workload.Class][]*ticket),
		cw:          make(map[workload.Class]int),
		active:      make(map[workload.Class]int),
		cancels:     make(map[*ticket]context.CancelFunc),
		sessions:    make(map[string]*SessionInfo),
		classCounts: make(map[workload.Class]*classCounters),
		waitHists:   make(map[workload.Class]*monitor.Hist),
		wallHists:   make(map[workload.Class]*monitor.Hist),
		dequeues:    make(map[workload.Class][]time.Time),
	}
	s.clock = s.cfg.Clock
	s.ring = trace.NewRing(s.cfg.TraceRingSize, s.cfg.SlowTraceKeep)
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

func validClass(c workload.Class) bool {
	for _, k := range classOrder {
		if c == k {
			return true
		}
	}
	return false
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

func (s *Server) touchSessionLocked(id string, class workload.Class) *SessionInfo {
	sess := s.sessions[id]
	if sess == nil {
		sess = &SessionInfo{ID: id, Created: time.Now()}
		s.sessions[id] = sess
	}
	sess.Queries++
	sess.LastClass = class
	sess.LastSeen = time.Now()
	return sess
}

// pumpLocked admits queued tickets while any class has both queued work
// and a free slot, picking classes by smooth weighted round-robin: each
// eligible class's current weight grows by its configured weight, the
// maximum wins and pays back the eligible total. Interleaving follows
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
		tk := s.queues[best][0]
		s.queues[best] = s.queues[best][1:]
		s.active[best]++
		s.noteDequeueLocked(best)
		close(tk.ready)
	}
}

// removeQueuedLocked pulls tk out of its class queue; false means the
// ticket was already resolved (admitted or drained).
func (s *Server) removeQueuedLocked(tk *ticket) bool {
	q := s.queues[tk.class]
	for i, cand := range q {
		if cand == tk {
			s.queues[tk.class] = append(q[:i:i], q[i+1:]...)
			return true
		}
	}
	return false
}

// Do submits one query and blocks until it resolves. Refusals return
// *RefusedError; deadline and cancellation surface the context error;
// everything else executed — the response carries the result, or the
// engine/parse error is returned as-is (still an admitted submission).
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
	if !validClass(class) {
		return nil, fmt.Errorf("serve: unknown class %q", class)
	}

	submitStart := s.clock()
	s.mu.Lock()
	s.submitted++
	reqID := req.RequestID
	if reqID == "" {
		reqID = fmt.Sprintf("blu-%06d", s.submitted)
	}
	s.touchSessionLocked(req.Session, class)
	if s.draining {
		s.shed++
		s.classCounts[class].shed++
		retry := s.retryAfterLocked()
		s.pushRecentLocked(metrics.RecentRequest{
			RequestID: reqID, Session: req.Session, Class: string(class), Outcome: "shed",
		})
		s.mu.Unlock()
		s.logRefused(reqID, req, class, qlog.OutcomeShed, "draining", 0, s.clock().Sub(submitStart))
		return nil, &RefusedError{Reason: "draining", Draining: true, RetryAfter: retry}
	}
	if s.queueDepthLocked() >= s.effectiveCapLocked() {
		s.shed++
		s.classCounts[class].shed++
		reason := "queue_full"
		if s.healthLocked() == metrics.HealthUnhealthy {
			reason = "queue_full_unhealthy"
		}
		retry := s.retryAfterLocked()
		s.pushRecentLocked(metrics.RecentRequest{
			RequestID: reqID, Session: req.Session, Class: string(class), Outcome: "shed",
		})
		s.mu.Unlock()
		s.logRefused(reqID, req, class, qlog.OutcomeShed, reason, 0, s.clock().Sub(submitStart))
		return nil, &RefusedError{Reason: reason, RetryAfter: retry}
	}
	tk := &ticket{class: class, ready: make(chan struct{}), enqueued: s.clock()}
	s.queues[class] = append(s.queues[class], tk)
	s.seq++
	seq := s.seq
	s.pumpLocked()
	s.mu.Unlock()

	select {
	case <-tk.ready:
	case <-ctx.Done():
		s.mu.Lock()
		if s.removeQueuedLocked(tk) {
			s.timedOut++
			s.classCounts[class].timedOut++
			wait := s.clock().Sub(tk.enqueued)
			s.pushRecentLocked(metrics.RecentRequest{
				RequestID: reqID, Session: req.Session, Class: string(class),
				Outcome: "timed_out", WaitMs: qlog.Ms(wait), TotalMs: qlog.Ms(s.clock().Sub(submitStart)),
			})
			s.mu.Unlock()
			s.logRefused(reqID, req, class, qlog.OutcomeTimedOut, "abandoned_queued",
				wait, s.clock().Sub(submitStart))
			return nil, fmt.Errorf("serve: abandoned while queued: %w", ctx.Err())
		}
		// Resolved concurrently with the cancellation; follow the
		// resolution — an admitted ticket still owes its slot release.
		s.mu.Unlock()
		<-tk.ready
	}
	if tk.drainedOut {
		wait := s.clock().Sub(tk.enqueued)
		s.mu.Lock()
		retry := s.retryAfterLocked()
		s.pushRecentLocked(metrics.RecentRequest{
			RequestID: reqID, Session: req.Session, Class: string(class),
			Outcome: "drained", WaitMs: qlog.Ms(wait), TotalMs: qlog.Ms(s.clock().Sub(submitStart)),
		})
		s.mu.Unlock()
		s.logRefused(reqID, req, class, qlog.OutcomeDrained, "drained",
			wait, s.clock().Sub(submitStart))
		return nil, &RefusedError{Reason: "drained", Draining: true, RetryAfter: retry}
	}
	return s.run(ctx, req, tk, class, seq, reqID, submitStart)
}

// run executes an admitted ticket, settles its accounting, and emits
// the request's observability record: wall-clock phases to the query
// log, the span subtree to the live trace ring, and the end-to-end
// wall latency to the per-class SLO histogram.
func (s *Server) run(ctx context.Context, req Request, tk *ticket, class workload.Class, seq uint64, reqID string, submitStart time.Time) (*Response, error) {
	wait := s.clock().Sub(tk.enqueued)
	deadline := req.Deadline
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	// The request ID rides the context into the engine: it lands on the
	// query's root trace span and the EXPLAIN ANALYZE report, so the
	// log, the trace ring, and the audit all join on one key. The prof
	// labels ride the same context so every engine phase bills its CPU
	// samples and allocation deltas to this class and request.
	ctx = qlog.WithRequestID(ctx, reqID)
	ctx = prof.WithRequest(ctx, s.cfg.Prof, string(class), reqID)
	s.cfg.Prof.AddWall(string(class), "queue_wait", wait)
	var execCtx context.Context
	var cancel context.CancelFunc
	if deadline > 0 {
		execCtx, cancel = context.WithTimeout(ctx, deadline)
	} else {
		execCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	s.mu.Lock()
	s.cancels[tk] = cancel
	s.waitHists[class].Observe(vtime.Duration(wait.Seconds()))
	if s.forced {
		cancel() // drain deadline already passed; don't start real work
	}
	s.mu.Unlock()

	// Breaker-aware placement backoff: while every device is
	// quarantined, give the fleet a bounded chance to re-close a breaker
	// (virtual time advances as other queries execute) before running —
	// the CPU fallback guarantees the query completes either way.
	retries := 0
	admission, _ := prof.Phase(execCtx, "admission", func(context.Context) error {
		if sch := s.exec.Scheduler(); sch != nil {
			backoff := s.cfg.PlaceBackoff
			for retries < s.cfg.PlaceRetries &&
				metrics.HealthStatus(sch) == metrics.HealthUnhealthy && execCtx.Err() == nil {
				select {
				case <-execCtx.Done():
					continue // deadline or drain: the loop condition ends the backoff
				case <-time.After(backoff):
				}
				backoff *= 2
				retries++
			}
		}
		return nil
	})

	name := req.Name
	if name == "" {
		name = fmt.Sprintf("serve-%d", seq)
	}
	attrs := []trace.Attr{
		trace.Str("serve.class", string(class)),
		trace.Str("serve.session", req.Session),
		trace.Int("serve.wait_us", wait.Microseconds()),
		trace.Int("serve.place_retries", int64(retries)),
	}

	execStart := time.Now()
	var res *engine.Result
	var rep *explain.Report
	var err error
	panicked := false
	func() {
		// A panicking executor must not take the slot with it: recover
		// turns the panic into this query's error, so the release,
		// accounting and query-log record below run exactly as they do
		// for any other failed execution.
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				res, rep, err = nil, nil, fmt.Errorf("panic: %v", r)
			}
		}()
		if req.Explain {
			rep, res, err = s.exec.ExplainAnalyzeNamedCtx(execCtx, name, req.SQL)
		} else {
			res, err = s.exec.QueryNamedCtxAttrs(execCtx, name, req.SQL, attrs...)
		}
	}()
	execWall := time.Since(execStart)

	s.mu.Lock()
	delete(s.cancels, tk)
	s.active[class]--
	s.placeRetries += uint64(retries)
	if panicked {
		s.panics++
	}
	canceled := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	if canceled {
		s.timedOut++
		s.classCounts[class].timedOut++
	} else {
		s.admitted++
		s.classCounts[class].admitted++
		if err != nil {
			s.execErrors++
		}
	}
	s.pumpLocked()
	s.cond.Broadcast()
	s.mu.Unlock()

	resp := &Response{
		Session:      req.Session,
		Query:        name,
		RequestID:    reqID,
		Class:        class,
		Result:       res,
		Report:       rep,
		Wait:         wait,
		ExecWall:     execWall,
		PlaceRetries: retries,
	}

	// Serialize inside the request's accounting window so the query
	// log's serialize phase covers the real encoding cost. The slot was
	// already released above — encoding is client work, not engine work.
	var serialize time.Duration
	resultBytes := 0
	var serErr error
	if err == nil && req.Serialize != nil {
		serialize, serErr = prof.Phase(ctx, "serialize", func(context.Context) error {
			var sErr error
			resultBytes, sErr = req.Serialize(resp)
			return sErr
		})
	}

	// Phase attribution: when the engine measured its own phases the log
	// takes those exact durations (the prof accountant saw the same
	// values, so the two ledgers reconcile to the microsecond); on the
	// error path exec_ms falls back to the whole engine call.
	var ph qlog.Phases
	ph.QueueWaitMs = qlog.Ms(wait)
	ph.AdmissionMs = qlog.Ms(admission)
	if res != nil {
		ph.ParseMs = qlog.Ms(res.Wall.Parse)
		ph.PlanMs = qlog.Ms(res.Wall.Plan)
		ph.ExecMs = qlog.Ms(res.Wall.Exec)
		ph.ExecGPUMs = qlog.Ms(res.Wall.ExecGPU)
		ph.ExecHostMs = qlog.Ms(res.Wall.ExecHost)
		ph.ExecGatherMs = qlog.Ms(res.Wall.ExecGather)
	} else {
		ph.ExecMs = qlog.Ms(execWall)
	}
	ph.SerializeMs = qlog.Ms(serialize)
	total := s.clock().Sub(submitStart)
	slow := s.cfg.SlowQuery > 0 && total >= s.cfg.SlowQuery
	resp.Phases = ph
	resp.Slow = slow

	outcome := qlog.OutcomeOK
	errMsg := ""
	switch {
	case canceled:
		outcome = qlog.OutcomeTimedOut
		errMsg = err.Error()
	case err != nil:
		outcome = qlog.OutcomeError
		errMsg = err.Error()
	case serErr != nil:
		outcome = qlog.OutcomeError
		errMsg = serErr.Error()
	}

	spans := s.captureTrace(reqID, name, req.Session, class, res, err, total, slow)

	s.mu.Lock()
	s.wallHists[class].Observe(vtime.Duration(total.Seconds()))
	if slow {
		s.slowQueries++
	}
	if serErr != nil && err == nil {
		s.execErrors++
	}
	s.pushRecentLocked(metrics.RecentRequest{
		RequestID: reqID, Query: name, Session: req.Session, Class: string(class),
		Outcome: outcome, WaitMs: qlog.Ms(wait), TotalMs: qlog.Ms(total), Slow: slow,
	})
	s.mu.Unlock()

	if s.cfg.Log != nil {
		devices, transferBytes, fallback := spanDigest(spans)
		rec := qlog.Record{
			Event:         qlog.EventQuery,
			RequestID:     reqID,
			Session:       req.Session,
			Query:         name,
			Class:         string(class),
			SQL:           req.SQL,
			Outcome:       outcome,
			Error:         errMsg,
			ResultBytes:   resultBytes,
			Devices:       devices,
			PlaceRetries:  retries,
			FallbackCause: fallback,
			TransferBytes: transferBytes,
			Phases:        ph,
			TotalMs:       qlog.Ms(total),
		}
		if res != nil {
			if res.Table != nil {
				rec.Rows = res.Table.Rows()
			}
			rec.GPUUsed = res.GPUUsed
			rec.ModeledMs = res.Modeled.Milliseconds()
		}
		if slow {
			rec.Slow = true
			rec.SlowThresholdMs = qlog.Ms(s.cfg.SlowQuery)
		}
		s.cfg.Log.Log(rec)
		if slow {
			rec.Event = qlog.EventSlow
			s.cfg.Log.Log(rec)
		}
	}

	if err != nil {
		if canceled {
			return nil, fmt.Errorf("serve: query %s exceeded its deadline: %w", name, err)
		}
		return nil, err
	}
	if serErr != nil {
		return nil, fmt.Errorf("serve: serialize %s: %w", name, serErr)
	}
	return resp, nil
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
		for _, tk := range s.queues[c] {
			tk.drainedOut = true
			s.drained++
			s.classCounts[c].drained++
			close(tk.ready)
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
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
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
		slo := s.cfg.SLOs[c]
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
			SLOThreshold: slo.Threshold.Seconds(),
			SLOObjective: slo.Objective,
		})
	}
	// Newest first, matching the trace ring's ordering.
	for i := len(s.recent) - 1; i >= 0; i-- {
		snap.Recent = append(snap.Recent, s.recent[i])
	}
	return snap
}
