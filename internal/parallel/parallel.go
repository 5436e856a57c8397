// Package parallel is the engine's chunked host-side worker pool — the
// reproduction's stand-in for the "parallel host threads" that build the
// partial key buffer (paper Section 3) and run the BLU evaluator chain on
// the 96-hardware-thread POWER8 testbed.
//
// The package is dependency-free on purpose: every host-side hot path
// (columnar gather, predicate scans, LCOG/CCAT/HASH key packing, sort key
// generation) shares the same range-splitting discipline so that parallel
// execution stays bit-identical to the sequential reference:
//
//   - [0, n) is split into at most Degree contiguous ranges, each at
//     least `grain` items, and each worker always receives the same
//     range for the same (n, grain, degree) — per-worker partial
//     results indexed by worker id therefore merge deterministically.
//   - Range boundaries are aligned to 64 items, so workers writing
//     disjoint row ranges of a shared bitmap (64 rows per word) never
//     touch the same word.
//   - With a single worker the body runs inline on the calling
//     goroutine: degree 1 *is* the sequential path, not a simulation
//     of it.
//   - A worker's panic is re-raised on the calling goroutine once every
//     worker has returned, so the caller's recover contains it.
package parallel

import (
	"runtime"
	"sync"
)

// rangeAlign aligns worker range boundaries so bitmap words (64 rows)
// are never shared between workers.
const rangeAlign = 64

// Degree normalizes a requested parallelism degree: values >= 1 are
// returned unchanged, anything else defaults to runtime.GOMAXPROCS(0).
// Every consumer of a Degree knob (evaluator.Deps, bsort.Config, the
// engine) funnels through this helper so an unset degree means "use the
// machine", never "run sequentially".
func Degree(d int) int {
	if d >= 1 {
		return d
	}
	return runtime.GOMAXPROCS(0)
}

// plan computes the worker count and per-worker range size for n items.
// Worker w covers [w*per, min(n, (w+1)*per)).
func plan(n, grain, degree int) (workers, per int) {
	if n <= 0 {
		return 0, 0
	}
	w := Degree(degree)
	if grain < 1 {
		grain = 1
	}
	if maxW := (n + grain - 1) / grain; w > maxW {
		w = maxW
	}
	if w < 1 {
		w = 1
	}
	per = (n + w - 1) / w
	per = (per + rangeAlign - 1) &^ (rangeAlign - 1)
	return (n + per - 1) / per, per
}

// Workers returns the number of workers For launches for n items at the
// given grain and degree. Callers size per-worker partial-result slots
// with it; slot w is filled by exactly the worker that receives range w.
func Workers(n, grain, degree int) int {
	w, _ := plan(n, grain, degree)
	return w
}

// For splits [0, n) into one contiguous, 64-aligned range per worker and
// runs body(lo, hi, worker) for each. Ranges are disjoint and cover
// [0, n); worker w always receives the w-th range in index order, so
// per-worker partials merge deterministically. Items below `grain` per
// worker shrink the pool rather than the chunks. With one worker the
// body runs inline and For is exactly a sequential loop.
func For(n, grain, degree int, body func(lo, hi, worker int)) {
	w, per := plan(n, grain, degree)
	if w == 0 {
		return
	}
	if w == 1 {
		body(0, n, 0)
		return
	}
	// Go's loop, not a call to Go: the adapting closure would cost every
	// For call an allocation, and For runs per operator per query.
	var g group
	g.wg.Add(w)
	for i := 0; i < w; i++ {
		go func(lo, hi, worker int) {
			defer g.done()
			body(lo, hi, worker)
		}(i*per, min(n, (i+1)*per), i)
	}
	g.wait()
}

// Go runs body(0) … body(workers-1), each on a goroutine of its own, and
// returns when all have returned; a single worker runs inline. The
// fan-outs that size their own work — kernel 2's per-SMX shared-table
// pass, the host bucket sort — use it; For is the same fan-out over row
// ranges.
func Go(workers int, body func(worker int)) {
	if workers == 1 {
		body(0)
		return
	}
	var g group
	g.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer g.done()
			body(w)
		}(w)
	}
	g.wait()
}

// group is a fan-out's join point. Only a recover on the panicking
// goroutine can catch a panic, so a worker's panic would bypass the
// serving layer's per-query recover and end the process; instead each
// worker's deferred done keeps the first panic, and wait re-raises it on
// the calling goroutine once every worker has returned.
type group struct {
	wg     sync.WaitGroup
	mu     sync.Mutex
	caught any
}

func (g *group) done() {
	if r := recover(); r != nil {
		g.mu.Lock()
		if g.caught == nil {
			g.caught = r
		}
		g.mu.Unlock()
	}
	g.wg.Done()
}

func (g *group) wait() {
	g.wg.Wait()
	if g.caught != nil {
		panic(g.caught)
	}
}
