package trace

import (
	"bufio"
	"io"
	"sort"
	"sync"
	"time"
)

// RingEntry is one retained query trace: the query's complete span
// subtree snapshotted at completion, keyed by its request ID.
type RingEntry struct {
	RequestID string
	Query     string // resolved query name
	Session   string
	Class     string
	Seq       uint64 // tracer query sequence the spans belong to
	Wall      time.Duration
	At        time.Time // completion time
	Slow      bool      // over the server's slow-query threshold
	Spans     []Span
}

// Ring is the always-on sampled live tracer: a bounded ring buffer of
// recent query traces plus a separate bounded top-K set of slow ones,
// which slow-query retention forces into regardless of recency. Safe
// for concurrent use (queries add while scrapes read).
type Ring struct {
	mu      sync.Mutex
	cap     int
	slowCap int
	recent  []RingEntry // ring; next points at the oldest slot
	next    int
	slow    []RingEntry // kept sorted by Wall descending
	added   uint64
}

// NewRing builds a Ring retaining up to capacity recent traces and
// slowCap slow ones (defaults 64 and 16).
func NewRing(capacity, slowCap int) *Ring {
	if capacity <= 0 {
		capacity = 64
	}
	if slowCap <= 0 {
		slowCap = 16
	}
	return &Ring{cap: capacity, slowCap: slowCap}
}

// Add retains one completed query trace. Slow entries additionally
// enter the top-K slow set, evicting its fastest member when full.
func (r *Ring) Add(e RingEntry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.added++
	if len(r.recent) < r.cap {
		r.recent = append(r.recent, e)
	} else {
		r.recent[r.next] = e
		r.next = (r.next + 1) % r.cap
	}
	if !e.Slow {
		return
	}
	i := sort.Search(len(r.slow), func(i int) bool { return r.slow[i].Wall < e.Wall })
	r.slow = append(r.slow, RingEntry{})
	copy(r.slow[i+1:], r.slow[i:])
	r.slow[i] = e
	if len(r.slow) > r.slowCap {
		r.slow = r.slow[:r.slowCap]
	}
}

// Get returns the retained trace for a request ID. The slow set is
// searched first (forced retention outlives the recency ring), then the
// ring newest-first.
func (r *Ring) Get(requestID string) (RingEntry, bool) {
	if r == nil {
		return RingEntry{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.slow {
		if e.RequestID == requestID {
			return e, true
		}
	}
	n := len(r.recent)
	for i := 0; i < n; i++ {
		// Walk backwards from the most recently written slot.
		e := r.recent[((r.next-1-i)%n+n)%n]
		if e.RequestID == requestID {
			return e, true
		}
	}
	return RingEntry{}, false
}

// Recent returns the retained traces, newest first.
func (r *Ring) Recent() []RingEntry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.recent)
	out := make([]RingEntry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.recent[((r.next-1-i)%n+n)%n])
	}
	return out
}

// Slow returns the retained slow traces, slowest first.
func (r *Ring) Slow() []RingEntry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RingEntry(nil), r.slow...)
}

// Stats returns lifetime adds and the current retention counts.
func (r *Ring) Stats() (added uint64, retained, slow int) {
	if r == nil {
		return 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.added, len(r.recent), len(r.slow)
}

// ExportChromeEntries writes the retained traces for entries as one
// Chrome trace-event JSON array, each event's args led by its entry's
// request_id. Each span contributes two complete events:
// its modeled virtual-time interval (cat as recorded, tid = depth) and,
// when wall bounds were captured, its wall-clock interval (cat prefixed
// "wall-", tid = depth+100 so the wall track groups below the modeled
// one inside the same query's pid). Wall timestamps are relative to the
// earliest wall start across the exported entries, so ts stays
// non-negative and the file is self-contained.
func ExportChromeEntries(w io.Writer, entries []RingEntry) error {
	var base time.Time
	for _, e := range entries {
		for _, s := range e.Spans {
			if s.WallStart.IsZero() {
				continue
			}
			if base.IsZero() || s.WallStart.Before(base) {
				base = s.WallStart
			}
		}
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	sep := ""
	for _, e := range entries {
		for i := range e.Spans {
			s := &e.Spans[i]
			bw.WriteString(sep)
			sep = ",\n"
			writeEvent(bw, s, s.Cat, s.Depth, float64(s.Start)*1e6, s.End.Sub(s.Start).Seconds()*1e6, &e.RequestID)
			if s.WallStart.IsZero() {
				continue
			}
			bw.WriteString(sep)
			writeEvent(bw, s, "wall-"+s.Cat, s.Depth+100, float64(s.WallStart.Sub(base))/float64(time.Microsecond),
				float64(s.WallEnd.Sub(s.WallStart))/float64(time.Microsecond), &e.RequestID)
		}
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}
