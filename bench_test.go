// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations over the design choices DESIGN.md calls
// out. Wall-clock numbers measure the simulator; the paper-shaped
// results are the modeled metrics reported alongside (modeled-ms,
// gain-pct, speedup-x).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// One experiment:
//
//	go test -bench=BenchmarkFig8 -benchtime=1x
package blugpu_test

import (
	"io"
	"math/rand"
	"sync"
	"testing"

	"blugpu/internal/bench"
	"blugpu/internal/bsort"
	"blugpu/internal/columnar"
	"blugpu/internal/gpu"
	"blugpu/internal/groupby"
	"blugpu/internal/sched"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

// The shared harness amortizes dataset generation across benchmarks.
var (
	harnessOnce sync.Once
	harness     *bench.Harness
	harnessErr  error
)

func sharedHarness(b *testing.B) *bench.Harness {
	b.Helper()
	harnessOnce.Do(func() {
		// The reporting scale: small enough for laptop wall-clock, large
		// enough that the paper's crossovers and the device-memory gate
		// are exercised.
		harness, harnessErr = bench.NewHarness(bench.Config{SF: 0.05})
	})
	if harnessErr != nil {
		b.Fatal(harnessErr)
	}
	return harness
}

func runExperiment(b *testing.B, name string) {
	h := sharedHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Run(name, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper artifact ---

func BenchmarkTable1MaskInit(b *testing.B) {
	in := &groupby.Input{
		NumRows: 0, Keys: []uint64{}, Hashes: []uint64{}, KeyBytes: 8,
		Aggs: []groupby.AggSpec{
			{Kind: groupby.Sum, Type: columnar.Int64},
			{Kind: groupby.Max, Type: columnar.Int64},
			{Kind: groupby.Min, Type: columnar.Int64},
		},
		Payloads: [][]uint64{{}, {}, {}},
	}
	for i := 0; i < b.N; i++ {
		if m := groupby.Mask(in); m[0] != groupby.EmptyKey {
			b.Fatal("bad mask")
		}
	}
}

func BenchmarkFig5Complex(b *testing.B)      { runExperiment(b, "fig5") }
func BenchmarkFig6Intermediate(b *testing.B) { runExperiment(b, "fig6") }
func BenchmarkFig7ROLAP(b *testing.B)        { runExperiment(b, "fig7") }
func BenchmarkTable2Serial(b *testing.B)     { runExperiment(b, "table2") }
func BenchmarkTable3Throughput(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkFig8Concurrent(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9MemUtil(b *testing.B)      { runExperiment(b, "fig9") }

// BenchmarkFig5ModeledGain reports the headline complex-query gain as a
// metric so regressions in the calibrated shape show up in bench output.
func BenchmarkFig5ModeledGain(b *testing.B) {
	h := sharedHarness(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		runs, err := h.RunSet(workload.Filter(workload.BDInsights(), workload.Complex))
		if err != nil {
			b.Fatal(err)
		}
		var on, off float64
		for _, r := range runs {
			on += r.GPUOn.Seconds()
			off += r.GPUOff.Seconds()
		}
		gain = (1 - on/off) * 100
	}
	b.ReportMetric(gain, "gain-pct")
}

// --- ablations ---

// BenchmarkAblationPinnedTransfer measures the 4x pinned-vs-unpinned
// claim of Section 2.1.2.
func BenchmarkAblationPinnedTransfer(b *testing.B) {
	dev := gpu.NewDevice(0, vtime.TeslaK40())
	res, err := dev.Reserve(1 << 26)
	if err != nil {
		b.Fatal(err)
	}
	defer res.Release()
	buf, _ := res.AllocWords(1 << 20)
	src := make([]uint64, 1<<20)
	var pinned, unpinned vtime.Duration
	for i := 0; i < b.N; i++ {
		tp, _ := dev.CopyToDevice(buf, src, true)
		tu, _ := dev.CopyToDevice(buf, src, false)
		pinned, unpinned = tp, tu
	}
	b.ReportMetric(unpinned.Seconds()/pinned.Seconds(), "unpinned/pinned-x")
}

// BenchmarkAblationKernels sweeps the three group-by kernels across the
// regimes the moderator distinguishes: few groups, regular, many
// aggregates.
func BenchmarkAblationKernels(b *testing.B) {
	model := vtime.Default()
	cases := []struct {
		name   string
		groups int
		aggs   int
	}{
		{"few-groups", 12, 3},
		{"regular", 4096, 3},
		{"many-groups", 60000, 3},
		{"many-aggs", 4096, 8},
	}
	for _, c := range cases {
		in := syntheticInput(150_000, c.groups, c.aggs)
		for _, k := range []groupby.Kernel{groupby.K1Regular, groupby.K2Shared, groupby.K3RowLock} {
			b.Run(c.name+"/"+k.String(), func(b *testing.B) {
				dev := gpu.NewDevice(0, vtime.TeslaK40())
				var modeled vtime.Duration
				for i := 0; i < b.N; i++ {
					res, err := dev.Reserve(groupby.MemoryDemand(in))
					if err != nil {
						b.Fatal(err)
					}
					out, err := groupby.RunGPU(in, res, model, groupby.GPUOptions{Kernel: k, Pinned: true})
					res.Release()
					if err != nil {
						b.Skip("kernel ineligible:", err)
					}
					modeled = out.Stats.KernelTime
				}
				b.ReportMetric(modeled.Microseconds(), "modeled-us")
			})
		}
	}
}

// BenchmarkAblationModeratorRace compares the moderator's single choice
// with racing two kernels.
func BenchmarkAblationModeratorRace(b *testing.B) {
	model := vtime.Default()
	in := syntheticInput(150_000, 12, 4)
	for _, race := range []bool{false, true} {
		name := "single"
		if race {
			name = "race"
		}
		b.Run(name, func(b *testing.B) {
			dev := gpu.NewDevice(0, vtime.TeslaK40())
			var modeled vtime.Duration
			for i := 0; i < b.N; i++ {
				res, err := dev.Reserve(groupby.MemoryDemand(in) * 2)
				if err != nil {
					b.Fatal(err)
				}
				out, err := groupby.RunGPU(in, res, model, groupby.GPUOptions{Race: race, Pinned: true})
				res.Release()
				if err != nil {
					b.Fatal(err)
				}
				modeled = out.Stats.Modeled
			}
			b.ReportMetric(modeled.Microseconds(), "modeled-us")
		})
	}
}

// BenchmarkAblationKMVErrorPath measures the cost of a low group
// estimate: the error path doubles the table and re-runs.
func BenchmarkAblationKMVErrorPath(b *testing.B) {
	model := vtime.Default()
	for _, c := range []struct {
		name string
		est  uint64
	}{
		{"accurate-estimate", 1000},
		{"low-estimate", 300}, // 512 slots: one doubling fits the ~1000 groups
	} {
		b.Run(c.name, func(b *testing.B) {
			in := syntheticInput(100_000, 1000, 2)
			in.EstGroups = c.est
			dev := gpu.NewDevice(0, vtime.TeslaK40())
			var modeled vtime.Duration
			retried := 0
			for i := 0; i < b.N; i++ {
				res, err := dev.Reserve(groupby.MemoryDemand(in) + (64 << 20))
				if err != nil {
					b.Fatal(err)
				}
				out, err := groupby.RunGPU(in, res, model, groupby.GPUOptions{Kernel: groupby.K1Regular, Pinned: true})
				res.Release()
				if err != nil {
					b.Fatal(err)
				}
				modeled = out.Stats.Modeled
				retried = out.Stats.Retried
			}
			b.ReportMetric(modeled.Microseconds(), "modeled-us")
			b.ReportMetric(float64(retried), "retries")
		})
	}
}

// BenchmarkAblationSortCrossover sweeps job sizes across the CPU/GPU
// sort threshold.
func BenchmarkAblationSortCrossover(b *testing.B) {
	model := vtime.Default()
	for _, n := range []int{8_192, 65_536, 524_288} {
		rng := rand.New(rand.NewSource(int64(n)))
		words := make([]uint32, 0, 2*n)
		for i := 0; i < n; i++ {
			u := uint64(rng.Int63()) ^ (1 << 63) // the int64 sort-key encoding
			words = append(words, uint32(u>>32), uint32(u))
		}
		src := bsort.NewFlatKeySource(words, n, 2)
		for _, useGPU := range []bool{false, true} {
			name := "cpu"
			if useGPU {
				name = "hybrid"
			}
			b.Run(name+"/"+itoa(n), func(b *testing.B) {
				cfg := bsort.Config{Model: model, Degree: 24, GPUThreshold: 1 << 14, Pinned: true}
				if useGPU {
					s, err := sched.New(gpu.NewDevice(0, vtime.TeslaK40()), gpu.NewDevice(1, vtime.TeslaK40()))
					if err != nil {
						b.Fatal(err)
					}
					cfg.Scheduler = s
				}
				var st bsort.Stats
				for i := 0; i < b.N; i++ {
					_, stats, err := bsort.Sort(src, cfg)
					if err != nil {
						b.Fatal(err)
					}
					st = stats
				}
				b.ReportMetric(st.Modeled.Microseconds(), "modeled-us")
				b.ReportMetric(float64(st.GPUJobs), "gpu-jobs")
			})
		}
	}
}

// BenchmarkAblationReservation measures admission contention: tasks
// whose combined demand exceeds the fleet either wait or fall back.
func BenchmarkAblationReservation(b *testing.B) {
	s, err := sched.New(gpu.NewDevice(0, vtime.TeslaK40()))
	if err != nil {
		b.Fatal(err)
	}
	noop := func(*gpu.Reservation) error { return nil }
	for i := 0; i < b.N; i++ {
		dev, err := s.Run(trace.Context{}, 0, 7<<30, nil, func(*gpu.Reservation) error {
			// Second 7GB task cannot fit while the first holds the device:
			// fallback path.
			if dev, _ := s.Run(trace.Context{}, 0, 7<<30, nil, noop); dev != nil {
				b.Fatal("expected rejection")
			}
			return nil
		})
		if dev == nil {
			b.Fatal(err)
		}
	}
}

// --- helpers ---

// syntheticInput builds a narrow-key task with mixed aggregate kinds.
func syntheticInput(rows, groups, aggs int) *groupby.Input {
	in := &groupby.Input{
		NumRows:   rows,
		Keys:      make([]uint64, rows),
		Hashes:    make([]uint64, rows),
		KeyBytes:  8,
		KeyBits:   20,
		EstGroups: uint64(groups),
	}
	kinds := []groupby.AggSpec{
		{Kind: groupby.Sum, Type: columnar.Int64},
		{Kind: groupby.Count},
		{Kind: groupby.Min, Type: columnar.Int64},
		{Kind: groupby.Max, Type: columnar.Int64},
		{Kind: groupby.Sum, Type: columnar.Float64},
	}
	for a := 0; a < aggs; a++ {
		spec := kinds[a%len(kinds)]
		in.Aggs = append(in.Aggs, spec)
		if spec.Kind == groupby.Count {
			in.Payloads = append(in.Payloads, nil)
			continue
		}
		p := make([]uint64, rows)
		for i := range p {
			p[i] = uint64(int64(i % 97))
		}
		in.Payloads = append(in.Payloads, p)
	}
	state := uint64(777)
	for i := 0; i < rows; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		k := (state >> 33) % uint64(groups)
		in.Keys[i] = k
		in.Hashes[i] = mix(k)
	}
	return in
}

func mix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func itoa(n int) string {
	if n >= 1<<20 {
		return "1M"
	}
	switch n {
	case 8_192:
		return "8k"
	case 65_536:
		return "64k"
	case 524_288:
		return "512k"
	}
	return "n"
}
