package bench

import (
	"fmt"
	"io"
	"math"

	"blugpu/internal/columnar"
	"blugpu/internal/engine"
	"blugpu/internal/fault"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

// Faults demonstrates the degradation invariant the paper's
// infrastructure layer implies but never measures: with aggressive fault
// injection at every GPU operation site — and one device lost mid-run —
// every workload query still completes with the same results as the
// fault-free engine, and the monitor accounts for every injected fault
// as a same-placement retry or a CPU fallback.
func (h *Harness) Faults(w io.Writer) error {
	header(w, "fault sweep: graceful degradation under GPU faults (beyond the paper)")
	inj := fault.New(fault.Config{
		Seed:    h.cfg.Seed,
		Reserve: 0.3,
		H2D:     0.2,
		D2H:     0.2,
		Kernel:  0.3,
	})
	faulted, err := h.newFaultedEngine(inj)
	if err != nil {
		return err
	}
	qs := workload.CognosROLAP()
	h.Eng.SetGPUEnabled(true)
	// Device 0 is the placement tie-break winner, i.e. the device doing
	// the work in a serial run — losing it is the interesting failure.
	lost := 0
	mismatches, errored := 0, 0
	for i, q := range qs {
		if i == len(qs)/2 {
			inj.KillDevice(lost)
			fmt.Fprintf(w, "-- device %d lost after %d queries --\n", lost, i)
		}
		want, err := h.Eng.Query(q.SQL)
		if err != nil {
			return fmt.Errorf("%s (clean): %w", q.ID, err)
		}
		got, err := faulted.QueryNamed(q.ID, q.SQL)
		if err != nil {
			// The invariant says this can never happen; report loudly.
			errored++
			fmt.Fprintf(w, "INVARIANT VIOLATED: %s failed under faults: %v\n", q.ID, err)
			continue
		}
		if msg := DiffResults(want, got); msg != "" {
			mismatches++
			fmt.Fprintf(w, "MISMATCH %s: %s\n", q.ID, msg)
		}
	}
	mon := faulted.Monitor()
	counts := inj.Counts()
	fmt.Fprintf(w, "queries: %d   errors: %d   result mismatches: %d\n", len(qs), errored, mismatches)
	fmt.Fprintf(w, "faults injected: reserve=%d h2d=%d d2h=%d kernel=%d (total %d)\n",
		counts.Reserve, counts.H2D, counts.D2H, counts.Kernel, counts.Total())
	var retryF, fbF uint64
	for _, ds := range mon.Retries() {
		fmt.Fprintf(w, "retries[%s]: %d (faulted %d)\n", ds.Op, ds.Count, ds.Faulted)
		retryF += ds.Faulted
	}
	for _, ds := range mon.Fallbacks() {
		fmt.Fprintf(w, "cpu fallbacks[%s]: %d (faulted %d)\n", ds.Op, ds.Count, ds.Faulted)
		fbF += ds.Faulted
	}
	trips, recovers := mon.BreakerCounts()
	fmt.Fprintf(w, "breaker: %d trips, %d recoveries\n", trips, recovers)
	fmt.Fprintf(w, "accounting: %d faults = %d faulted retries + %d faulted fallbacks\n",
		counts.Total(), retryF, fbF)
	if tr := faulted.Tracer(); tr != nil {
		// With tracing on, every injected fault must also appear as a span
		// attribute in the trace — the per-query view of the same ledger.
		fmt.Fprintf(w, "trace: %d fault span attributes, %d orphan device events\n",
			tr.FaultAttrCount(), tr.Orphans())
	}
	if errored > 0 || mismatches > 0 {
		return fmt.Errorf("bench: fault sweep degraded incorrectly (%d errors, %d mismatches)", errored, mismatches)
	}
	return nil
}

// newFaultedEngine builds a second engine over the harness dataset with
// the given injector wired into every device.
func (h *Harness) newFaultedEngine(inj *fault.Injector) (*engine.Engine, error) {
	spec := vtime.TeslaK40()
	if h.cfg.DeviceMemory > 0 {
		spec.DeviceMemory = h.cfg.DeviceMemory
	}
	eng, err := engine.New(engine.Config{
		Devices:    h.cfg.Devices,
		DeviceSpec: spec,
		Degree:     h.cfg.Degree,
		Race:       h.cfg.Race,
		Faults:     inj,
		Tracer:     h.cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	if err := h.Data.RegisterAll(eng); err != nil {
		return nil, err
	}
	return eng, nil
}

// DiffResults compares two query results row by row and returns a short
// description of the first difference, or "" when identical. Integer,
// string and NULL cells must match exactly; float cells compare with a
// 1e-9 relative tolerance, because parallel float aggregation is
// order-sensitive in the last bits whichever path runs.
func DiffResults(want, got *engine.Result) string {
	wt, gt := want.Table, got.Table
	if wt.Rows() != gt.Rows() {
		return fmt.Sprintf("%d rows vs %d", gt.Rows(), wt.Rows())
	}
	wc, gc := wt.Columns(), gt.Columns()
	if len(wc) != len(gc) {
		return fmt.Sprintf("%d columns vs %d", len(gc), len(wc))
	}
	for ci := range wc {
		if wc[ci].Name() != gc[ci].Name() {
			return fmt.Sprintf("column %d named %q vs %q", ci, gc[ci].Name(), wc[ci].Name())
		}
		for ri := 0; ri < wt.Rows(); ri++ {
			a, b := wc[ci].Value(ri), gc[ci].Value(ri)
			if !cellsEqual(a, b) {
				return fmt.Sprintf("row %d column %q: %v vs %v", ri, wc[ci].Name(), b, a)
			}
		}
	}
	return ""
}

func cellsEqual(a, b columnar.Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	if a.Type == columnar.Float64 || b.Type == columnar.Float64 {
		toF := func(v columnar.Value) float64 {
			if v.Type == columnar.Int64 {
				return float64(v.I)
			}
			return v.F
		}
		x, y := toF(a), toF(b)
		if x == y {
			return true
		}
		scale := math.Max(math.Abs(x), math.Abs(y))
		return math.Abs(x-y) <= 1e-9*math.Max(scale, 1)
	}
	return a.Equal(b)
}
