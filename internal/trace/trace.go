// Package trace implements the per-query span tracer behind the
// engine's operator-level attribution: every query builds a tree of
// spans (query → operator → evaluator/sort-job/GPU attempt →
// kernel/transfer) positioned on the simulation's virtual timeline and
// stamped with wall-clock bounds.
//
// The paper's Section 2.3 point is that device time must be attributed
// to the *host application's* operators, which off-the-shelf tools
// cannot do. internal/monitor answers "how much, in aggregate"; this
// package answers "which query, which operator, which attempt".
//
// Design constraints:
//
//   - Tracing off must cost nothing. A zero Context (or one derived
//     from a nil Tracer) makes every method a nil-check no-op; no time
//     is read and no memory is allocated.
//   - Concurrency-safe: spans may begin, end, annotate and export from
//     any goroutine (the GPU moderator races kernels; device events
//     arrive from executing queries).
//   - Deterministic: span IDs are assigned in creation order and the
//     Chrome export contains only virtual-time stamps, so a fixed-seed
//     run exports byte-identical JSON (wall-clock bounds appear only in
//     the human-oriented flame summary).
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"blugpu/internal/vtime"
)

// SpanID identifies one span within a Tracer. 0 is "no span".
type SpanID uint64

// Attr is one typed span attribute: either a string or an int64 value.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Str: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Int: v, IsInt: true} }

// Value renders the attribute value as a string.
func (a Attr) Value() string {
	if a.IsInt {
		return fmt.Sprintf("%d", a.Int)
	}
	return a.Str
}

// Span is one traced interval. Start/End are on the virtual timeline
// shared by every span in the tracer; WallStart/WallEnd are real time.
type Span struct {
	ID     SpanID
	Parent SpanID // 0 for query roots
	Query  uint64 // 1-based query sequence number
	Depth  int    // tree depth; roots are 0
	Cat    string // "query", "op", "eval", "gpu", "sched", "sort-job", "kernel", "transfer", "cpu"
	Name   string

	Start, End         vtime.Time
	WallStart, WallEnd time.Time

	Attrs []Attr
}

// span is the mutable internal record. cursor lays out event-derived
// child spans (kernels, transfers) sequentially under their parent.
type span struct {
	Span
	cursor vtime.Time
	ended  bool
}

// snapshot copies the span out, attributes included, so the copy stays
// stable while the tracer keeps appending.
func (s *span) snapshot() Span {
	sp := s.Span
	sp.Attrs = append([]Attr(nil), s.Attrs...)
	return sp
}

// Tracer collects spans. Safe for concurrent use; the zero value is not
// usable — call New.
type Tracer struct {
	mu sync.Mutex
	// byQuery holds each query's spans in creation order, so one query's
	// subtree is read (QuerySpans) or removed (TakeQuery) without touching
	// any other query's spans.
	byQuery map[uint64][]*span
	byID    map[SpanID]*span
	lastID  SpanID
	queries uint64
	// orphans counts device events (kernel/transfer/fault) that arrived
	// with no live span to attach to. A fully-traced run has zero.
	orphans uint64
}

// New returns an empty tracer.
func New() *Tracer {
	return &Tracer{byQuery: make(map[uint64][]*span), byID: make(map[SpanID]*span)}
}

// Context addresses one span of one tracer. The zero value is a valid
// no-op context (tracing disabled).
type Context struct {
	tr    *Tracer
	id    SpanID
	query uint64
}

// Enabled reports whether the context is attached to a tracer.
func (c Context) Enabled() bool { return c.tr != nil }

// ID returns the context's span id, 0 when disabled.
func (c Context) ID() SpanID { return c.id }

// Query returns the 1-based query sequence number the context belongs
// to, 0 when disabled. EXPLAIN ANALYZE uses it to carve one query's
// subtree out of a shared tracer.
func (c Context) Query() uint64 { return c.query }

// newSpanLocked allocates and registers a span. Caller holds t.mu.
func (t *Tracer) newSpanLocked(parent SpanID, query uint64, depth int, cat, name string, at vtime.Time) *span {
	t.lastID++
	s := &span{Span: Span{
		ID: t.lastID, Parent: parent, Query: query, Depth: depth,
		Cat: cat, Name: name, Start: at, End: at,
	}, cursor: at}
	t.byQuery[query] = append(t.byQuery[query], s)
	t.byID[s.ID] = s
	return s
}

// StartQuery opens a new query-root span at virtual time at and returns
// its context. name may be empty; the root is then named "q<seq>".
func (t *Tracer) StartQuery(name string, at vtime.Time) Context {
	if t == nil {
		return Context{}
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queries++
	if name == "" {
		name = fmt.Sprintf("q%d", t.queries)
	}
	s := t.newSpanLocked(0, t.queries, 0, "query", name, at)
	s.WallStart = now
	return Context{tr: t, id: s.ID, query: t.queries}
}

// Begin opens a child span under c at virtual time at.
func (c Context) Begin(cat, name string, at vtime.Time) Context {
	if c.tr == nil {
		return Context{}
	}
	now := time.Now()
	c.tr.mu.Lock()
	defer c.tr.mu.Unlock()
	depth := 1
	if p := c.tr.byID[c.id]; p != nil {
		depth = p.Depth + 1
	}
	s := c.tr.newSpanLocked(c.id, c.query, depth, cat, name, at)
	s.WallStart = now
	return Context{tr: c.tr, id: s.ID, query: c.query}
}

// End closes the span at virtual time at, appending attrs. Ending an
// already-ended span only appends the attributes.
func (c Context) End(at vtime.Time, attrs ...Attr) {
	if c.tr == nil {
		return
	}
	now := time.Now()
	c.tr.mu.Lock()
	defer c.tr.mu.Unlock()
	s := c.tr.byID[c.id]
	if s == nil {
		return
	}
	if !s.ended {
		s.ended = true
		s.End = at
		s.WallEnd = now
	}
	s.Attrs = append(s.Attrs, attrs...)
}

// Emit records a complete child span covering [at, at+d).
func (c Context) Emit(cat, name string, at vtime.Time, d vtime.Duration, attrs ...Attr) {
	if c.tr == nil {
		return
	}
	now := time.Now()
	c.tr.mu.Lock()
	defer c.tr.mu.Unlock()
	depth := 1
	if p := c.tr.byID[c.id]; p != nil {
		depth = p.Depth + 1
	}
	s := c.tr.newSpanLocked(c.id, c.query, depth, cat, name, at)
	s.End = at.Add(d)
	s.WallStart, s.WallEnd = now, now
	s.ended = true
	s.Attrs = append(s.Attrs, attrs...)
}

// Annotate appends attributes to the context's span.
func (c Context) Annotate(attrs ...Attr) {
	if c.tr == nil || len(attrs) == 0 {
		return
	}
	c.tr.mu.Lock()
	defer c.tr.mu.Unlock()
	if s := c.tr.byID[c.id]; s != nil {
		s.Attrs = append(s.Attrs, attrs...)
	}
}

// RecordDeviceEvent attaches one device event to the span tree. The
// engine's event sink calls it for every gpu.Event, passing the event's
// bound span id:
//
//   - kernel and transfer events ("kernel", "h2d", "d2h") materialize
//     as leaf spans laid out sequentially under the parent (each parent
//     keeps a layout cursor starting at its own Start);
//   - fault and reserve-fail events become attributes on the parent
//     span, which is how "every injected fault appears as a span
//     attribute" is implemented;
//   - reserve events are dropped (the monitor counts them; the
//     placement span already carries the chosen device).
//
// Events with an unknown or zero parent are counted as orphans.
func (t *Tracer) RecordDeviceEvent(parent SpanID, device int, kind, name string, bytes int64, modeled vtime.Duration) {
	if t == nil {
		return
	}
	if kind == "reserve" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.byID[parent]
	if p == nil {
		t.orphans++
		return
	}
	switch kind {
	case "fault":
		p.Attrs = append(p.Attrs, Str("fault", name))
		return
	case "reserve-fail":
		p.Attrs = append(p.Attrs, Int("reserve-fail-bytes", bytes))
		return
	}
	cat, spanName := "kernel", name
	if kind == "h2d" || kind == "d2h" {
		cat, spanName = "transfer", kind
	}
	s := t.newSpanLocked(p.ID, p.Query, p.Depth+1, cat, spanName, p.cursor)
	s.End = p.cursor.Add(modeled)
	s.ended = true
	p.cursor = s.End
	s.Attrs = append(s.Attrs, Int("device", int64(device)), Int("bytes", bytes))
}

// Spans returns a snapshot of every held span: queries in start order,
// each query's spans in creation order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	held := make([]uint64, 0, len(t.byQuery))
	for q := range t.byQuery {
		held = append(held, q)
	}
	sort.Slice(held, func(i, j int) bool { return held[i] < held[j] })
	out := make([]Span, 0, len(t.byID))
	for _, q := range held {
		for _, s := range t.byQuery[q] {
			out = append(out, s.snapshot())
		}
	}
	return out
}

// Held returns the number of spans the tracer currently holds.
func (t *Tracer) Held() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}

// QuerySpans returns a snapshot of every span belonging to query
// sequence number q, in creation order. It is the span-side input to
// the EXPLAIN ANALYZE reconciliation: one query's complete subtree.
func (t *Tracer) QuerySpans(q uint64) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.byQuery[q]
	out := make([]Span, len(spans))
	for i, s := range spans {
		out[i] = s.snapshot()
	}
	return out
}

// TakeQuery removes query q's spans from the tracer and returns them in
// creation order. A long-running server calls it once per finished query
// and keeps what it wants in a bounded Ring, so the tracer holds only
// in-flight queries; a tracer nobody takes from retains the whole
// session for export. Events that arrive for a taken query count as
// orphans.
func (t *Tracer) TakeQuery(q uint64) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.byQuery[q]
	delete(t.byQuery, q)
	out := make([]Span, len(spans))
	for i, s := range spans {
		out[i] = s.Span
		delete(t.byID, s.ID)
	}
	return out
}

// Queries returns the number of query roots started.
func (t *Tracer) Queries() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.queries
}

// Orphans returns the number of device events that arrived without a
// live parent span. Zero in a fully-attributed run.
func (t *Tracer) Orphans() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.orphans
}

// FaultAttrCount counts "fault" attributes across all spans — the
// span-side total that must match the injector's count in a traced
// fault sweep.
func (t *Tracer) FaultAttrCount() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, s := range t.byID {
		for _, a := range s.Attrs {
			if a.Key == "fault" {
				n++
			}
		}
	}
	return n
}

// Reset discards all spans and counters.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byQuery = make(map[uint64][]*span)
	t.byID = make(map[SpanID]*span)
	t.lastID = 0
	t.queries = 0
	t.orphans = 0
}
