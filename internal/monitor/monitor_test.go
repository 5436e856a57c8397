package monitor

import (
	"strings"
	"sync"
	"testing"

	"blugpu/internal/gpu"
	"blugpu/internal/vtime"
)

func TestKernelAggregation(t *testing.T) {
	m := New()
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventKernel, Name: "groupby_k1", Modeled: 10 * vtime.Millisecond})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventKernel, Name: "groupby_k1", Modeled: 30 * vtime.Millisecond})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventKernel, Name: "radix_sort", Modeled: 5 * vtime.Millisecond})

	ks := m.Kernels()
	if len(ks) != 2 {
		t.Fatalf("kernels = %d, want 2", len(ks))
	}
	if ks[0].Name != "groupby_k1" || ks[0].Count != 2 || ks[0].Total != 40*vtime.Millisecond {
		t.Errorf("top kernel = %+v", ks[0])
	}
	if ks[0].Max != 30*vtime.Millisecond {
		t.Errorf("max = %v, want 30ms", ks[0].Max)
	}
}

func TestTransferAggregation(t *testing.T) {
	m := New()
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventTransferH2D, Bytes: 1024, Modeled: vtime.Microsecond})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventTransferH2D, Bytes: 2048, Modeled: vtime.Microsecond})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventTransferD2H, Bytes: 512, Modeled: vtime.Microsecond})
	h2d, d2h := m.Transfers()
	if h2d.Count != 2 || h2d.Bytes != 3072 {
		t.Errorf("h2d = %+v", h2d)
	}
	if d2h.Count != 1 || d2h.Bytes != 512 {
		t.Errorf("d2h = %+v", d2h)
	}
}

func TestReserveCounts(t *testing.T) {
	m := New()
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventReserve, Bytes: 100})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventReserveFail, Bytes: 100})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventReserve, Bytes: 100})
	ok, fail := m.ReserveCounts()
	if ok != 2 || fail != 1 {
		t.Errorf("reserves = (%d, %d), want (2, 1)", ok, fail)
	}
}

func TestEvaluators(t *testing.T) {
	m := New()
	m.RecordEvaluator("HASH", 1000, vtime.Millisecond)
	m.RecordEvaluator("HASH", 2000, vtime.Millisecond)
	m.RecordEvaluator("MEMCPY", 500, 10*vtime.Millisecond)
	evals := m.Evaluators()
	if len(evals) != 2 {
		t.Fatalf("evals = %d, want 2", len(evals))
	}
	if evals[0].Name != "MEMCPY" {
		t.Errorf("top evaluator by time = %s, want MEMCPY", evals[0].Name)
	}
	if evals[1].Rows != 3000 || evals[1].Count != 2 {
		t.Errorf("HASH stats = %+v", evals[1])
	}
}

func TestResetAndReport(t *testing.T) {
	m := New()
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventKernel, Name: "k", Modeled: vtime.Second})
	m.RecordEvaluator("LCOG", 5, vtime.Millisecond)
	var sb strings.Builder
	m.Report(&sb)
	out := sb.String()
	for _, want := range []string{"kernels:", "k", "transfers:", "reservations:", "LCOG"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	m.Reset()
	if len(m.Kernels()) != 0 || len(m.Evaluators()) != 0 {
		t.Error("Reset did not clear telemetry")
	}
}

func TestConcurrentRecording(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.RecordGPUEvent(gpu.Event{Kind: gpu.EventKernel, Name: "k", Modeled: vtime.Microsecond})
				m.RecordEvaluator("HASH", 1, vtime.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if ks := m.Kernels(); ks[0].Count != 8000 {
		t.Errorf("kernel count = %d, want 8000", ks[0].Count)
	}
}

// TestResetClearsEverything populates every aggregate the monitor owns —
// kernel/evaluator/query histograms, transfer totals, reservation
// counts, fault/retry/fallback/breaker counters — and demands that
// Reset returns each accessor to its zero state, then that recording
// resumes from scratch rather than on stale histograms.
func TestResetClearsEverything(t *testing.T) {
	m := New()
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventKernel, Name: "k", Modeled: vtime.Millisecond})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventTransferH2D, Bytes: 1 << 20, Modeled: vtime.Microsecond})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventTransferD2H, Bytes: 1 << 10, Modeled: vtime.Microsecond})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventReserve})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventReserveFail})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventFault, Name: "kernel"})
	m.RecordEvaluator("HASH", 100, vtime.Millisecond)
	m.RecordQuery("q1", vtime.Millisecond, true)
	m.RecordGPURetry("place", true)
	m.RecordFallback("groupby", false)
	m.RecordBreaker(0, true)
	m.RecordBreaker(0, false)

	m.Reset()

	if n := len(m.Kernels()); n != 0 {
		t.Errorf("Kernels after Reset = %d entries", n)
	}
	if n := len(m.Evaluators()); n != 0 {
		t.Errorf("Evaluators after Reset = %d entries", n)
	}
	if n := len(m.Queries()); n != 0 {
		t.Errorf("Queries after Reset = %d entries", n)
	}
	h2d, d2h := m.Transfers()
	if h2d.Count != 0 || h2d.Bytes != 0 || d2h.Count != 0 || d2h.Bytes != 0 {
		t.Errorf("Transfers after Reset: h2d=%+v d2h=%+v", h2d, d2h)
	}
	if ok, fail := m.ReserveCounts(); ok != 0 || fail != 0 {
		t.Errorf("ReserveCounts after Reset = %d, %d", ok, fail)
	}
	if n := m.FaultTotal(); n != 0 {
		t.Errorf("FaultTotal after Reset = %d", n)
	}
	if fc := m.FaultCounts(); len(fc) != 0 {
		t.Errorf("FaultCounts after Reset = %v", fc)
	}
	if n := len(m.Retries()); n != 0 {
		t.Errorf("Retries after Reset = %d entries", n)
	}
	if n := len(m.Fallbacks()); n != 0 {
		t.Errorf("Fallbacks after Reset = %d entries", n)
	}
	if trips, recov := m.BreakerCounts(); trips != 0 || recov != 0 {
		t.Errorf("BreakerCounts after Reset = %d, %d", trips, recov)
	}

	// Recording after Reset must start fresh histograms, not resume the
	// old ones: one sample, count 1, one populated bucket.
	m.RecordQuery("q1", 2*vtime.Millisecond, false)
	qs := m.Queries()
	if len(qs) != 1 || qs[0].Count != 1 {
		t.Fatalf("post-Reset query stats = %+v", qs)
	}
	if len(qs[0].Buckets) != 1 || qs[0].Buckets[0].CumCount != 1 {
		t.Errorf("post-Reset histogram carries stale buckets: %+v", qs[0].Buckets)
	}
	if qs[0].Max != 2*vtime.Millisecond {
		t.Errorf("post-Reset max = %v, want 2ms", qs[0].Max)
	}
}
