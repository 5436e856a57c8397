package bench

// Data-path fusion, tested differentially: the fused device pipeline is
// a pure transfer optimization. With fusion on it must return exactly
// the results the staged (fusion-off) engine returns while moving fewer
// H2D bytes — and under injected mid-chain faults it must spill, fall
// back and still match, with every fault accounted as exactly one
// faulted retry or fallback and the decision audit naming the cause.

import (
	"context"
	"strings"
	"testing"

	"blugpu/internal/engine"
	"blugpu/internal/fault"
	"blugpu/internal/optimizer"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

// fusionEngine is sweepEngine with the fused data path switchable: T1=1
// forces the GPU chain for any grouped query, so the toy-scale dataset
// still forms fused chains.
func fusionEngine(t *testing.T, data *workload.Dataset, inj *fault.Injector, noFusion bool) *engine.Engine {
	t.Helper()
	eng, err := engine.New(engine.Config{
		Devices:          2,
		DeviceSpec:       vtime.TeslaK40(),
		Degree:           8,
		Thresholds:       optimizer.Thresholds{T1Rows: 1, T2Groups: 0, T3Rows: 1 << 40},
		GPUSortThreshold: 256,
		Faults:           inj,
		NoFusion:         noFusion,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := data.RegisterAll(eng); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestFusionDifferential runs the full BD + ROLAP query sets through a
// fused and an unfused engine over the same dataset and demands
// bit-identical tables, real fused-chain executions, and an H2D byte
// reduction — the property the BENCH gate measures, checked at test
// scale on every run.
func TestFusionDifferential(t *testing.T) {
	data := workload.Generate(0.004, 7)
	qs := append(workload.BDInsights(), workload.CognosROLAP()...)
	if testing.Short() {
		qs = qs[:30]
	}

	off := fusionEngine(t, data, nil, true)
	on := fusionEngine(t, data, nil, false)
	for _, q := range qs {
		want, err := off.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s (fusion off): %v", q.ID, err)
		}
		got, err := on.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s (fusion on): %v", q.ID, err)
		}
		if msg := DiffResults(want, got); msg != "" {
			t.Errorf("%s: fused result differs from staged: %s", q.ID, msg)
		}
	}

	chains, saved, uploaded := on.Monitor().FusedStats()
	if chains == 0 {
		t.Fatal("no fused chains executed; the differential is vacuous")
	}
	if saved == 0 {
		t.Error("fused chains never hit the column cache (saved bytes == 0)")
	}
	if c, _, _ := off.Monitor().FusedStats(); c != 0 {
		t.Errorf("NoFusion engine executed %d fused chains", c)
	}
	h2dOn, _ := on.Monitor().Transfers()
	h2dOff, _ := off.Monitor().Transfers()
	if h2dOn.Bytes >= h2dOff.Bytes {
		t.Errorf("fusion did not reduce H2D traffic: %d bytes on vs %d off", h2dOn.Bytes, h2dOff.Bytes)
	}
	t.Logf("fused chains=%d saved=%d B fills=%d B; H2D %d -> %d bytes (%+.1f%%)",
		chains, saved, uploaded, h2dOff.Bytes, h2dOn.Bytes,
		100*(float64(h2dOn.Bytes)/float64(h2dOff.Bytes)-1))
}

// TestFusedChainFaultSweep is the mid-chain fault discipline check: with
// fusion on and faults injected at every device site, chains that lose
// their device mid-pipeline must spill, resume on the CPU and produce
// the same bytes an engine that never fused produces. The monitor's
// one-fault-one-handling ledger must stay exact through the spill path.
func TestFusedChainFaultSweep(t *testing.T) {
	qs := append(workload.BDInsights(), workload.CognosROLAP()...)
	if testing.Short() {
		qs = qs[:30]
	}
	faultSweep(t, 0.004, qs, 1, func(t *testing.T, eng *engine.Engine, _ []*engine.Result) {
		if chains, _, _ := eng.Monitor().FusedStats(); chains == 0 {
			t.Error("no fused chain completed; the sweep never exercised the fused path")
		}
	})
}

// TestDeviceJoinFaultSweep runs the sweep over the statements whose
// group-by sits on joins, three passes over them, so that the later
// passes find the build tables and the fact columns the earlier ones
// filled and probe on the device: a fused_join that faults spills with
// its chain, and the join is then charged on the host once, while the
// answer is the unfused engine's, bit for bit.
func TestDeviceJoinFaultSweep(t *testing.T) {
	var qs []workload.Query
	for _, q := range append(workload.BDInsights(), workload.CognosROLAP()...) {
		if strings.Contains(q.SQL, " JOIN ") && strings.Contains(q.SQL, "GROUP BY") {
			qs = append(qs, q)
		}
	}
	if testing.Short() {
		qs = qs[:10]
	}
	faultSweep(t, 0.02, qs, 3, func(t *testing.T, _ *engine.Engine, res []*engine.Result) {
		joins := 0
		for _, r := range res {
			for _, op := range r.Ops {
				if op.Agg != nil {
					joins += op.Agg.DeviceJoins
				}
			}
		}
		if joins == 0 {
			t.Error("no join completed on the device; the sweep never exercised the device probe")
		}
		t.Logf("%d joins probed on the device", joins)
	})
}

// faultSweep runs qs, laps times over, on a fused engine at fault rates
// 0, 0.1 and 0.5 at every device site, with device 0 killed halfway, and
// with device 0's free memory held from halfway on, so chains whose entry
// is resident there place on device 1 and weigh their fill there.
// Every answer must be the bytes an engine that never fused gives, and
// every injected fault one faulted retry or fallback on the monitor.
// fused, run on the fault-free case, checks that the sweep exercised the
// path it is about, from the engine and every result.
func faultSweep(t *testing.T, sf float64, qs []workload.Query, laps int, fused func(*testing.T, *engine.Engine, []*engine.Result)) {
	t.Helper()
	data := workload.Generate(sf, 7)
	// The baseline arm never fuses: a faulted fused run must match
	// results produced with the fused path never engaged at all.
	clean := fusionEngine(t, data, nil, true)
	baseline := make([]*engine.Result, len(qs))
	for i, q := range qs {
		res, err := clean.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s (baseline): %v", q.ID, err)
		}
		baseline[i] = res
	}

	cases := []struct {
		name       string
		rate       float64
		killAtHalf bool
		fullAtHalf bool
		wantFaults bool
	}{
		{name: "rate-0", rate: 0},
		{name: "rate-0.1", rate: 0.1, wantFaults: true},
		{name: "rate-0.5", rate: 0.5, wantFaults: true},
		{name: "device-dead", rate: 0, killAtHalf: true, wantFaults: true},
		{name: "device-full", rate: 0, fullAtHalf: true},
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
			eng := fusionEngine(t, data, inj, false)
			var results []*engine.Result
			for n := 0; n < laps*len(qs); n++ {
				if tc.killAtHalf && n == laps*len(qs)/2 {
					inj.KillDevice(0)
				}
				if tc.fullAtHalf && n == laps*len(qs)/2 {
					dev := eng.Devices()[0]
					held, err := dev.Reserve(dev.FreeMemory())
					if err != nil {
						t.Fatal(err)
					}
					defer held.Release()
				}
				i := n % len(qs)
				res, err := eng.Query(qs[i].SQL)
				if err != nil {
					t.Fatalf("invariant violated: %s errored under faults: %v", qs[i].ID, err)
				}
				if msg := DiffResults(baseline[i], res); msg != "" {
					t.Errorf("%s: fused-under-fault differs from unfused baseline: %s", qs[i].ID, msg)
				}
				results = append(results, res)
			}

			mon := eng.Monitor()
			// Under sustained fault rates the breakers trip early and the
			// toy-scale run's virtual time never outlives the probation, so
			// chains only reliably complete while devices are healthy: the
			// fault-free case and the pre-kill half of device-dead.
			if tc.rate == 0 && !tc.killAtHalf && !tc.fullAtHalf {
				fused(t, eng, results)
			}
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
			t.Logf("%s: %d faults, retries %v, fallbacks %v", tc.name, total, mon.Retries(), mon.Fallbacks())
		})
	}
}

// TestFusedFaultExplainAttribution pins the decision audit under a
// mid-chain fault: with every kernel launch faulting, the fused chain
// places, fills its cache, faults at the first stage kernel, spills, and
// the EXPLAIN ANALYZE group-by audit must name the injected fault as the
// fallback cause while reconciling its double-entry totals.
func TestFusedFaultExplainAttribution(t *testing.T) {
	data := workload.Generate(0.004, 7)
	inj := fault.New(fault.Config{Seed: 20160626, Kernel: 1.0})
	eng := fusionEngine(t, data, inj, false)

	sql := workload.BDInsights()[0].SQL
	rep, _, err := eng.ExplainAnalyzeNamedCtx(context.Background(), "", sql)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, op := range rep.Ops {
		if op.Groupby == nil {
			continue
		}
		found = true
		if op.Groupby.FallbackCause == "" {
			t.Errorf("group-by audit has no fallback cause under kernel faults: %+v", op.Groupby)
		} else {
			t.Logf("fallback cause: %s", op.Groupby.FallbackCause)
		}
		if op.Groupby.Fused {
			t.Error("a chain that faulted before finishing must not audit as fused")
		}
	}
	if !found {
		t.Fatal("no group-by operator in the report")
	}
	if len(rep.Totals.Mismatches) != 0 {
		t.Errorf("double-entry mismatches under fused fault: %v", rep.Totals.Mismatches)
	}
	if total := eng.Monitor().FaultTotal(); total == 0 {
		t.Error("no faults fired; attribution check is vacuous")
	}
}
