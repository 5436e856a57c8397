package bench

// The degradation invariant, tested differentially: whatever the fault
// injector does to the GPU path — per-site fault rates of 0 / 0.1 / 0.5,
// or a whole device dying mid-run — every workload query must complete
// without error and return the same results as the fault-free engine,
// and the monitor must account for every injected fault as either a
// same-placement retry or a CPU fallback.

import (
	"testing"

	"blugpu/internal/engine"
	"blugpu/internal/fault"
	"blugpu/internal/optimizer"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

// sweepEngine builds an engine that sends every eligible operation to
// the device: T1=1 forces the GPU chain for any grouped query and a tiny
// sort threshold forces radix-sort jobs, so the toy-scale dataset still
// exercises every fault site.
func sweepEngine(t *testing.T, data *workload.Dataset, inj *fault.Injector) *engine.Engine {
	t.Helper()
	eng, err := engine.New(engine.Config{
		Devices:          2,
		DeviceSpec:       vtime.TeslaK40(),
		Degree:           8,
		Thresholds:       optimizer.Thresholds{T1Rows: 1, T2Groups: 0, T3Rows: 1 << 40},
		GPUSortThreshold: 256,
		Faults:           inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := data.RegisterAll(eng); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestFaultSweepDifferential(t *testing.T) {
	data := workload.Generate(0.004, 7)
	qs := append(workload.BDInsights(), workload.CognosROLAP()...)
	if testing.Short() {
		qs = qs[:30]
	}

	clean := sweepEngine(t, data, nil)
	baseline := make([]*engine.Result, len(qs))
	gpuQueries := 0
	for i, q := range qs {
		res, err := clean.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s (fault-free): %v", q.ID, err)
		}
		baseline[i] = res
		if res.GPUUsed {
			gpuQueries++
		}
	}
	if gpuQueries == 0 {
		t.Fatal("no query took the GPU path; the sweep would be vacuous")
	}
	t.Logf("%d/%d baseline queries used the GPU", gpuQueries, len(qs))

	cases := []struct {
		name       string
		rate       float64
		killAtHalf bool
		wantFaults bool
	}{
		{name: "rate-0", rate: 0},
		{name: "rate-0.1", rate: 0.1, wantFaults: true},
		{name: "rate-0.5", rate: 0.5, wantFaults: true},
		{name: "device-dead", rate: 0, killAtHalf: true, wantFaults: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := fault.New(fault.Config{
				Seed:    20160626,
				Reserve: tc.rate,
				H2D:     tc.rate,
				D2H:     tc.rate,
				Kernel:  tc.rate,
			})
			eng := sweepEngine(t, data, inj)
			for i, q := range qs {
				// Kill device 0: the placement tie-break prefers it, so in
				// a serial run it is the device actually doing the work —
				// losing it forces real breaker trips and re-placements.
				if tc.killAtHalf && i == len(qs)/2 {
					inj.KillDevice(0)
				}
				res, err := eng.Query(q.SQL)
				if err != nil {
					t.Fatalf("invariant violated: %s errored under faults: %v", q.ID, err)
				}
				if msg := DiffResults(baseline[i], res); msg != "" {
					t.Errorf("%s differs from fault-free run: %s", q.ID, msg)
				}
			}

			// Accounting: every injected fault surfaces in the monitor
			// (device events), and is handled as exactly one faulted
			// retry or one faulted fallback.
			mon := eng.Monitor()
			total := mon.FaultTotal()
			if injected := inj.Counts().Total(); total != injected {
				t.Errorf("monitor saw %d faults, injector fired %d", total, injected)
			}
			var handled uint64
			for _, ds := range mon.Retries() {
				handled += ds.Faulted
			}
			for _, ds := range mon.Fallbacks() {
				handled += ds.Faulted
			}
			if handled != total {
				t.Errorf("accounting leak: %d faults injected, %d handled as retries+fallbacks", total, handled)
			}
			if tc.wantFaults && total == 0 {
				t.Error("expected faults to fire, none did")
			}
			if !tc.wantFaults && total != 0 {
				t.Errorf("expected no faults, got %d", total)
			}
			if tc.killAtHalf {
				trips, _ := mon.BreakerCounts()
				if trips == 0 {
					t.Error("dead device never tripped the circuit breaker")
				}
				for _, h := range eng.Scheduler().Health() {
					if h.Device == 0 && h.Trips == 0 {
						t.Errorf("device 0 health shows no trips: %+v", h)
					}
				}
			}
			t.Logf("%s: %d faults, breaker %v, retries %v, fallbacks %v",
				tc.name, total, firstOf(mon.BreakerCounts()), mon.Retries(), mon.Fallbacks())
		})
	}
}

func firstOf(trips, _ uint64) uint64 { return trips }
