package bench

import (
	"io"
	"testing"

	"blugpu/internal/des"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

// TestPaperConfigShapes holds the paper's evaluation claims on the
// paper's own configuration: NoFusion, the prototype's data path (LCOV,
// MEMCPY into pinned memory, then H2D per query), at the reporting scale.
// Each assertion quotes the claim beside it and bounds it loosely enough
// that a modeled change which keeps the paper's shape passes, and one
// which reverses it fails.
func TestPaperConfigShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test needs the full scale factor")
	}
	h, err := NewHarness(Config{SF: 0.05, NoFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	setGain := func(c workload.Class) float64 {
		t.Helper()
		runs, err := h.RunSet(workload.Filter(workload.BDInsights(), c))
		if err != nil {
			t.Fatal(err)
		}
		var on, off vtime.Duration
		for _, r := range runs {
			on += r.GPUOn
			off += r.GPUOff
		}
		return 1 - on.Seconds()/off.Seconds()
	}

	// Figure 5, paper §5.1: the GPU improves the five complex queries'
	// total end-to-end time "by about 20%".
	if g := setGain(workload.Complex); g < 0.10 {
		t.Errorf("fig5 complex gain = %.1f%%, want >= 10%% (paper ~20%%)", g*100)
	} else {
		t.Logf("fig5 complex gain %.1f%%", g*100)
	}

	// Figure 6, paper §5.1: the intermediate queries run "close to the
	// baseline" — the optimizer keeps their small group-bys on the CPU.
	if g := setGain(workload.Intermediate); g < -0.05 || g > 0.05 {
		t.Errorf("fig6 intermediate gain = %.1f%%, want within ±5%% (paper ≈ 0)", g*100)
	} else {
		t.Logf("fig6 intermediate gain %.1f%%", g*100)
	}

	// Table 2, paper §5.2: 34 of the 46 ROLAP queries fit the K40's
	// memory and the 12 that do not are excluded; over the 34, "total
	// serial execution time improves by 8.33%".
	ran, gated, _, _, err := h.rolapGated()
	if err != nil {
		t.Fatal(err)
	}
	var on, off vtime.Duration
	for _, r := range ran {
		on += r.GPUOn
		off += r.GPUOff
	}
	if len(gated) != 12 || len(ran)+len(gated) != 46 {
		t.Errorf("table2 gated %d of %d, want 12 of 46", len(gated), len(ran)+len(gated))
	}
	if g := 1 - on.Seconds()/off.Seconds(); g <= 0 {
		t.Errorf("table2 gain = %.1f%%, want positive (paper 8.33%%)", g*100)
	} else {
		t.Logf("table2 gain %.1f%%", g*100)
	}

	// Table 3, paper §5.2: "the GPU benefits are more pronounced in
	// multi-user environments, rather than with higher degrees of
	// parallelism" — two streams gain more than one at every degree.
	for _, degree := range []int{24, 48, 64} {
		var gains [2]float64
		for s := range gains {
			onT, offT, err := h.throughput(ran, s+1, degree)
			if err != nil {
				t.Fatal(err)
			}
			gains[s] = onT/offT - 1
		}
		if gains[1] <= gains[0] {
			t.Errorf("table3 degree %d: 2-stream gain %.1f%% <= 1-stream gain %.1f%%", degree, gains[1]*100, gains[0]*100)
		} else {
			t.Logf("table3 degree %d: 1 stream %.1f%%, 2 streams %.1f%%", degree, gains[0]*100, gains[1]*100)
		}
	}

	// Figure 8, paper §5.3: the mixed ten-user workload shows "almost a
	// 2x speed up" with the GPU; the makespan ratio must reach 1.5x.
	res, offRes, err := h.Fig8(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if speedup := offRes.Makespan.Seconds() / res.Makespan.Seconds(); speedup < 1.5 {
		t.Errorf("fig8 speedup = %.2fx (GPU off %v, on %v), want >= 1.5x", speedup, offRes.Makespan, res.Makespan)
	} else {
		t.Logf("fig8 speedup %.2fx", speedup)
	}

	// Figure 9, paper §5.3: device memory during the Figure-8 run shows a
	// "very spiky pattern" and "at many points the workload is near GPU
	// memory capacity" — on each device, a peak of at least three
	// quarters of the simulated device's memory, and at least two drops
	// from there to below a quarter of the peak.
	if len(res.MemSeries) != len(res.Devices) || len(res.Devices) == 0 {
		t.Fatalf("fig9: %d memory series for %d devices", len(res.MemSeries), len(res.Devices))
	}
	for d, series := range res.MemSeries {
		peak, drops := memSpikes(series)
		capacity := res.Devices[d].Mem
		if float64(peak) < 0.75*float64(capacity) || drops < 2 {
			t.Errorf("fig9 device %d: peak %.2f MB of %.2f MB, %d drops below a quarter of it; want >= 75%% and >= 2 drops",
				d, float64(peak)/(1<<20), float64(capacity)/(1<<20), drops)
		} else {
			t.Logf("fig9 device %d: peak %.2f MB of %.2f MB, %d drops", d, float64(peak)/(1<<20), float64(capacity)/(1<<20), drops)
		}
	}
}

// memSpikes returns a device's peak memory use over the samples and how
// many times use fell below a quarter of that peak after reaching at
// least three quarters of it.
func memSpikes(series []des.MemSample) (peak int64, drops int) {
	for _, s := range series {
		peak = max(peak, s.Used)
	}
	high := false
	for _, s := range series {
		switch {
		case 4*s.Used >= 3*peak:
			high = true
		case high && 4*s.Used < peak:
			high = false
			drops++
		}
	}
	return peak, drops
}
