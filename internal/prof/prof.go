// Package prof is the always-on resource-attribution layer: it answers
// "which query class spends the wall time and the allocations, and in
// which phase?" with numbers that reconcile against the query log's
// wall-clock phase breakdown, and it labels every phase so the standard
// Go CPU profiler can answer the same question for CPU.
//
// The serving layer opens a request account with WithRequest (class +
// request ID), and every phase of query execution — parse, plan, exec,
// serialize, admission — runs inside Phase, which:
//
//   - applies pprof labels (blu_class/blu_phase/blu_request) via
//     runtime/pprof.Do, so samples of a CPU profile taken while the
//     phase runs carry the attribution;
//   - measures the phase's wall time and heap-allocation delta
//     (runtime/metrics /gc/heap/allocs:bytes) and adds both to the
//     request's Accountant.
//
// Wall time is the exact axis: the duration Phase returns is the same
// value the query log records for that phase, so summing qlog phases
// over a set of request IDs matches the accountant to within the log's
// microsecond rounding. Allocation deltas read a process-global
// counter, so under concurrent queries a phase may absorb a neighbor's
// allocations — totals stay conserved, per-phase splits are approximate.
//
// CPU is not accounted here. The package takes no profiles and parses
// none: an operator takes one with the standard tool (bluserve -pprof,
// then `go tool pprof -tagfocus blu_class=simple
// http://host/debug/pprof/profile`), and the labels above slice it by
// class, phase or request.
package prof

import (
	"context"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// Label keys applied to profile samples while a phase runs.
const (
	LabelClass   = "blu_class"
	LabelPhase   = "blu_phase"
	LabelRequest = "blu_request"
)

// PhaseStats is the account of one (class, phase) cell.
type PhaseStats struct {
	Class string
	Phase string
	// Count is the number of Phase invocations recorded.
	Count uint64
	// WallSeconds is the summed wall time of those invocations —
	// the exact counterpart of the query log's phase columns.
	WallSeconds float64
	// AllocBytes is the summed heap-allocation delta observed across
	// the invocations (approximate under concurrency).
	AllocBytes uint64
}

type phaseKey struct{ class, phase string }

type phaseCell struct {
	count uint64
	wall  float64
	alloc uint64
}

// Accountant accumulates per-(class, phase) resource accounts. Safe for
// concurrent use. The zero value is not usable; call NewAccountant.
type Accountant struct {
	mu    sync.Mutex
	cells map[phaseKey]*phaseCell
}

// NewAccountant returns an empty account.
func NewAccountant() *Accountant {
	return &Accountant{cells: make(map[phaseKey]*phaseCell)}
}

func (a *Accountant) cell(class, phase string) *phaseCell {
	k := phaseKey{class, phase}
	c := a.cells[k]
	if c == nil {
		c = &phaseCell{}
		a.cells[k] = c
	}
	return c
}

// AddWall charges d of wall time (and one invocation) to (class, phase)
// without running code under labels. The serving layer uses it for
// queue_wait, where the goroutine is blocked, not executing.
func (a *Accountant) AddWall(class, phase string, d time.Duration) {
	if a == nil {
		return
	}
	a.mu.Lock()
	c := a.cell(class, phase)
	c.count++
	c.wall += d.Seconds()
	a.mu.Unlock()
}

func (a *Accountant) addPhase(class, phase string, wall time.Duration, alloc uint64) {
	a.mu.Lock()
	c := a.cell(class, phase)
	c.count++
	c.wall += wall.Seconds()
	c.alloc += alloc
	a.mu.Unlock()
}

// Snapshot returns the account sorted by class then phase — a
// deterministic order for exposition and tests.
func (a *Accountant) Snapshot() []PhaseStats {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := make([]PhaseStats, 0, len(a.cells))
	for k, c := range a.cells {
		out = append(out, PhaseStats{
			Class:       k.class,
			Phase:       k.phase,
			Count:       c.count,
			WallSeconds: c.wall,
			AllocBytes:  c.alloc,
		})
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// request is the per-request attribution carried in a context.
type request struct {
	acct  *Accountant
	class string
	id    string
}

type ctxKey struct{}

// WithRequest opens a resource account on the context: phases run under
// it are charged to (class, phase) on acct and labeled with the request
// ID in CPU profiles. A nil acct returns ctx unchanged, making the
// whole layer a no-op for unwired callers.
func WithRequest(ctx context.Context, acct *Accountant, class, requestID string) context.Context {
	if acct == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &request{acct: acct, class: class, id: requestID})
}

// FromContext returns the accountant and class bound to ctx, or nil/""
// when no request account is open.
func FromContext(ctx context.Context) (*Accountant, string) {
	r, _ := ctx.Value(ctxKey{}).(*request)
	if r == nil {
		return nil, ""
	}
	return r.acct, r.class
}

// allocSample is the cached runtime/metrics sample descriptor for the
// cumulative heap-allocation counter. The slice is recreated per read
// (metrics.Read mutates it) but the name is fixed.
const allocMetric = "/gc/heap/allocs:bytes"

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: allocMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// Phase runs f as one named phase of the request bound to ctx: under
// pprof labels for CPU attribution, with wall time and the heap-alloc
// delta charged to the request's accountant. It returns f's error and
// the measured wall duration — callers feed that same duration to the
// query log so the two surfaces agree exactly.
//
// When ctx carries no request account, f still runs (unlabeled) and the
// duration is still measured, so engine code calls Phase
// unconditionally.
func Phase(ctx context.Context, phase string, f func(context.Context) error) (time.Duration, error) {
	r, _ := ctx.Value(ctxKey{}).(*request)
	if r == nil {
		start := time.Now()
		err := f(ctx)
		return time.Since(start), err
	}
	var err error
	a0 := allocBytes()
	start := time.Now()
	pprof.Do(ctx, pprof.Labels(
		LabelClass, r.class,
		LabelPhase, phase,
		LabelRequest, r.id,
	), func(lctx context.Context) {
		err = f(lctx)
	})
	elapsed := time.Since(start)
	a1 := allocBytes()
	var alloc uint64
	if a1 > a0 {
		alloc = a1 - a0
	}
	r.acct.addPhase(r.class, phase, elapsed, alloc)
	return elapsed, err
}

// AddWallCtx charges wall time to the request account bound to ctx (no
// labels, no alloc delta). No-op without an account.
func AddWallCtx(ctx context.Context, phase string, d time.Duration) {
	if r, _ := ctx.Value(ctxKey{}).(*request); r != nil {
		r.acct.AddWall(r.class, phase, d)
	}
}
