package main

import (
	"math/rand"
	"time"
)

// request is one generated operation: which statement, and (open loop)
// when it is due relative to the start of the measured sequence.
type request struct {
	Stmt int           // index into the workload's statement set
	Due  time.Duration // open loop only; 0 for closed loops
}

// schedule generates laps whole laps of an n-statement set. Each lap is
// an independent seeded permutation, so every run executes exactly the
// same statement mix whatever the seed — the seed moves only order and
// arrival times, and run-to-run spread is the system's, not the mix's.
// With qps > 0 arrivals are a Poisson process at that rate (seeded
// exponential gaps), rescaled so the last request is due at exactly
// n·laps/qps: the offered load is then the same every run, and
// throughput falls below it only when the program falls behind. The
// order and the gaps come from separate streams so the same seed gives
// the same order open or closed.
func schedule(seed int64, n, laps int, qps float64) []request {
	order := rand.New(rand.NewSource(seed))
	gaps := rand.New(rand.NewSource(seed ^ 0x5851f42d4c957f2d))
	reqs := make([]request, 0, n*laps)
	var due float64 // seconds
	for l := 0; l < laps; l++ {
		for _, s := range order.Perm(n) {
			r := request{Stmt: s}
			if qps > 0 {
				due += gaps.ExpFloat64() / qps
				r.Due = time.Duration(due * float64(time.Second))
			}
			reqs = append(reqs, r)
		}
	}
	if qps > 0 {
		scale := float64(len(reqs)) / qps / due
		for i := range reqs {
			reqs[i].Due = time.Duration(float64(reqs[i].Due) * scale)
		}
	}
	return reqs
}

// lapsFor picks how many whole laps come closest to the requested
// measuring time, given how long one lap took (the unmeasured warm-up
// lap for closed loops, n/qps for the open loop). At least one.
func lapsFor(seconds float64, lap time.Duration) int {
	if lap <= 0 {
		return 1
	}
	laps := int(seconds/lap.Seconds() + 0.5)
	if laps < 1 {
		laps = 1
	}
	return laps
}
