package parallel

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDegreeDefaultsToGOMAXPROCS(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	for _, d := range []int{0, -1, -100} {
		if got := Degree(d); got != want {
			t.Errorf("Degree(%d) = %d, want GOMAXPROCS %d", d, got, want)
		}
	}
	for _, d := range []int{1, 2, 24, 96} {
		if got := Degree(d); got != d {
			t.Errorf("Degree(%d) = %d, want %d", d, got, d)
		}
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4097} {
		for _, degree := range []int{1, 2, 8} {
			hits := make([]int32, n)
			For(n, 1, degree, func(lo, hi, worker int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("n=%d degree=%d: bad range [%d,%d)", n, degree, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d degree=%d: index %d visited %d times", n, degree, i, h)
				}
			}
		}
	}
}

func TestForRangesAre64Aligned(t *testing.T) {
	For(1000, 1, 8, func(lo, hi, worker int) {
		if lo%64 != 0 {
			t.Errorf("worker %d range starts at %d, not 64-aligned", worker, lo)
		}
		if hi != 1000 && hi%64 != 0 {
			t.Errorf("worker %d range ends at %d, not 64-aligned", worker, hi)
		}
	})
}

func TestForWorkerAssignmentDeterministic(t *testing.T) {
	// Worker w must always receive the w-th range, so per-worker
	// partials merge in a deterministic order.
	n, grain, degree := 10_000, 64, 8
	w := Workers(n, grain, degree)
	type rng struct{ lo, hi int }
	run := func() []rng {
		got := make([]rng, w)
		For(n, grain, degree, func(lo, hi, worker int) {
			got[worker] = rng{lo, hi}
		})
		return got
	}
	first := run()
	for trial := 0; trial < 3; trial++ {
		if got := run(); fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("worker ranges changed across runs: %v vs %v", got, first)
		}
	}
	// Ranges must be contiguous and ordered by worker id.
	prev := 0
	for wi, r := range first {
		if r.lo != prev {
			t.Fatalf("worker %d range [%d,%d) not contiguous after %d", wi, r.lo, r.hi, prev)
		}
		prev = r.hi
	}
	if prev != n {
		t.Fatalf("ranges cover [0,%d), want [0,%d)", prev, n)
	}
}

func TestForSingleWorkerRunsInline(t *testing.T) {
	calls := 0
	For(100, 1, 1, func(lo, hi, worker int) {
		calls++
		if lo != 0 || hi != 100 || worker != 0 {
			t.Errorf("inline call got [%d,%d) worker %d", lo, hi, worker)
		}
	})
	if calls != 1 {
		t.Errorf("degree 1 made %d calls, want 1 inline call", calls)
	}
}

func TestForGrainLimitsWorkers(t *testing.T) {
	// 100 items with grain 64: at most ceil(100/64)=2 workers,
	// regardless of the requested degree.
	if w := Workers(100, 64, 16); w > 2 {
		t.Errorf("Workers(100, 64, 16) = %d, want <= 2", w)
	}
	if w := Workers(0, 64, 16); w != 0 {
		t.Errorf("Workers(0, ...) = %d, want 0", w)
	}
	if w := Workers(1<<20, 64, 8); w != 8 {
		t.Errorf("Workers(1<<20, 64, 8) = %d, want 8", w)
	}
}

func TestForParallelSumMatchesSequential(t *testing.T) {
	n := 100_000
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i * 31)
	}
	var seq int64
	for _, v := range data {
		seq += v
	}
	for _, degree := range []int{1, 2, 8} {
		w := Workers(n, 64, degree)
		partial := make([]int64, w)
		For(n, 64, degree, func(lo, hi, worker int) {
			var s int64
			for _, v := range data[lo:hi] {
				s += v
			}
			partial[worker] = s
		})
		var got int64
		for _, s := range partial {
			got += s
		}
		if got != seq {
			t.Errorf("degree %d: parallel sum %d != sequential %d", degree, got, seq)
		}
	}
}
