package des

import (
	"math"
	"reflect"
	"testing"
)

func cfg1GPU() Config {
	return Config{CPUCapacity: 45.6, Devices: []DeviceSpec{{Mem: 12 << 30}}}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleCPUQuery(t *testing.T) {
	// 100 core-seconds at parallelism 10 on an empty machine: 10 seconds.
	p := Profile{Name: "q", Phases: []Phase{{Kind: CPUPhase, Work: 100, MaxPar: 10}}}
	r, err := Run(cfg1GPU(), [][]Profile{{p}})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r.Makespan.Seconds(), 10, 1e-9) {
		t.Errorf("makespan = %v, want 10s", r.Makespan)
	}
	if len(r.Queries) != 1 || !almost(r.Queries[0].Elapsed().Seconds(), 10, 1e-9) {
		t.Errorf("queries = %+v", r.Queries)
	}
	if !almost(p.SerialSeconds(), 10, 1e-9) {
		t.Errorf("SerialSeconds = %v", p.SerialSeconds())
	}
}

func TestCPUContention(t *testing.T) {
	// Two queries each wanting 40 cores on a 45.6-core pool must slow
	// down; alone each takes 100/40 = 2.5s, together the pool gives each
	// 22.8 cores -> ~4.39s.
	p := Profile{Name: "q", Phases: []Phase{{Kind: CPUPhase, Work: 100, MaxPar: 40}}}
	r, err := Run(cfg1GPU(), [][]Profile{{p}, {p}})
	if err != nil {
		t.Fatal(err)
	}
	want := 100 / (45.6 / 2)
	if !almost(r.Makespan.Seconds(), want, 1e-6) {
		t.Errorf("makespan = %v, want %.3fs", r.Makespan, want)
	}
}

func TestCPUNoContentionUnderCapacity(t *testing.T) {
	// Two queries at parallelism 10 fit side by side in 45.6 cores: no
	// slowdown.
	p := Profile{Name: "q", Phases: []Phase{{Kind: CPUPhase, Work: 100, MaxPar: 10}}}
	r, err := Run(cfg1GPU(), [][]Profile{{p}, {p}})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r.Makespan.Seconds(), 10, 1e-9) {
		t.Errorf("makespan = %v, want 10s (no contention)", r.Makespan)
	}
}

func TestGPUPhaseAndMemory(t *testing.T) {
	p := Profile{Name: "gq", Phases: []Phase{
		{Kind: CPUPhase, Work: 10, MaxPar: 10},
		{Kind: GPUPhase, Work: 2, Mem: 8 << 30},
		{Kind: CPUPhase, Work: 10, MaxPar: 10},
	}}
	r, err := Run(cfg1GPU(), [][]Profile{{p}})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r.Makespan.Seconds(), 1+2+1, 1e-9) {
		t.Errorf("makespan = %v, want 4s", r.Makespan)
	}
	// Memory series must show the 8GB spike and return to zero.
	series := r.MemSeries[0]
	var peak int64
	for _, s := range series {
		if s.Used > peak {
			peak = s.Used
		}
	}
	if peak != 8<<30 {
		t.Errorf("peak device memory = %d, want 8GB", peak)
	}
	if series[len(series)-1].Used != 0 {
		t.Error("device memory should drain to zero")
	}
}

func TestGPUMemoryBlocksAdmission(t *testing.T) {
	// Two queries each need 8GB on a 12GB device: the second must wait.
	p := Profile{Name: "gq", Phases: []Phase{{Kind: GPUPhase, Work: 2, Mem: 8 << 30}}}
	r, err := Run(cfg1GPU(), [][]Profile{{p}, {p}})
	if err != nil {
		t.Fatal(err)
	}
	if r.GPUWaits != 1 {
		t.Errorf("GPUWaits = %d, want 1", r.GPUWaits)
	}
	// Serialized: 4 seconds, not 2.
	if !almost(r.Makespan.Seconds(), 4, 1e-9) {
		t.Errorf("makespan = %v, want 4s (serialized by memory)", r.Makespan)
	}
}

func TestTwoDevices(t *testing.T) {
	// With two devices the same pair runs in parallel.
	cfg := Config{CPUCapacity: 45.6, Devices: []DeviceSpec{{Mem: 12 << 30}, {Mem: 12 << 30}}}
	p := Profile{Name: "gq", Phases: []Phase{{Kind: GPUPhase, Work: 2, Mem: 8 << 30}}}
	r, err := Run(cfg, [][]Profile{{p}, {p}})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r.Makespan.Seconds(), 2, 1e-9) {
		t.Errorf("makespan = %v, want 2s (parallel devices)", r.Makespan)
	}
	if r.GPUWaits != 0 {
		t.Errorf("GPUWaits = %d, want 0", r.GPUWaits)
	}
}

func TestGPUComputeSharing(t *testing.T) {
	// Two kernels resident on one device share its compute: each 2
	// device-seconds -> 4 seconds total.
	p := Profile{Name: "gq", Phases: []Phase{{Kind: GPUPhase, Work: 2, Mem: 1 << 30}}}
	r, err := Run(cfg1GPU(), [][]Profile{{p}, {p}})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r.Makespan.Seconds(), 4, 1e-9) {
		t.Errorf("makespan = %v, want 4s (shared device)", r.Makespan)
	}
}

func TestStreamsAreSequential(t *testing.T) {
	p := Profile{Name: "q", Phases: []Phase{{Kind: CPUPhase, Work: 10, MaxPar: 10}}}
	r, err := Run(cfg1GPU(), [][]Profile{{p, p, p}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Queries) != 3 {
		t.Fatalf("queries = %d, want 3", len(r.Queries))
	}
	if !almost(r.Makespan.Seconds(), 3, 1e-9) {
		t.Errorf("makespan = %v, want 3s (sequential stream)", r.Makespan)
	}
	// Start times must be 0, 1, 2.
	for i, q := range r.Queries {
		if !almost(q.Start, float64(i), 1e-9) {
			t.Errorf("query %d started at %v, want %d", i, q.Start, i)
		}
	}
}

// TestRunIsDeterministic holds a simulation to one result, bit for bit
// and in one completion order: streams that tie at every event must not
// finish in an order that varies from run to run.
func TestRunIsDeterministic(t *testing.T) {
	cpu := Profile{Name: "cpu", Phases: []Phase{{Kind: CPUPhase, Work: 30, MaxPar: 12}}}
	gpu := Profile{Name: "gpu", Phases: []Phase{
		{Kind: CPUPhase, Work: 7, MaxPar: 24}, {Kind: GPUPhase, Work: 0.3, Mem: 3 << 30}, {Kind: CPUPhase, Work: 1.1, MaxPar: 5},
	}}
	var streams [][]Profile
	for s := 0; s < 9; s++ {
		streams = append(streams, []Profile{cpu, gpu, cpu})
	}
	cfg := Config{CPUCapacity: 45.6, Devices: []DeviceSpec{{Mem: 8 << 30}, {Mem: 8 << 30}}}
	first, err := Run(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 20; run++ {
		r, err := Run(cfg, streams)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(r, first) {
			continue
		}
		for i := range r.Queries {
			if r.Queries[i] != first.Queries[i] {
				t.Fatalf("run %d: completion %d is %+v, first run's %+v", run, i, r.Queries[i], first.Queries[i])
			}
		}
		t.Fatalf("run %d differs from the first (makespan %x, first run's %x)", run, math.Float64bits(float64(r.Makespan)), math.Float64bits(float64(first.Makespan)))
	}
}

func TestOffloadImprovesThroughput(t *testing.T) {
	// The paper's core claim: moving group-by work to the GPU frees CPU
	// for other streams. CPU-only profile: 100 core-seconds. Offloaded:
	// 60 core-seconds + 1 device-second. With 8 concurrent streams the
	// offloaded variant must finish sooner.
	cpuOnly := Profile{Name: "cpu", Phases: []Phase{{Kind: CPUPhase, Work: 100, MaxPar: 24}}}
	offload := Profile{Name: "gpu", Phases: []Phase{
		{Kind: CPUPhase, Work: 60, MaxPar: 24},
		{Kind: GPUPhase, Work: 1, Mem: 2 << 30},
	}}
	mk := func(p Profile) [][]Profile {
		streams := make([][]Profile, 8)
		for i := range streams {
			streams[i] = []Profile{p, p}
		}
		return streams
	}
	base, err := Run(cfg1GPU(), mk(cpuOnly))
	if err != nil {
		t.Fatal(err)
	}
	accel, err := Run(cfg1GPU(), mk(offload))
	if err != nil {
		t.Fatal(err)
	}
	if accel.Makespan >= base.Makespan {
		t.Errorf("offload makespan %v should beat CPU-only %v", accel.Makespan, base.Makespan)
	}
	if accel.Throughput() <= base.Throughput() {
		t.Errorf("offload throughput %.1f should beat %.1f", accel.Throughput(), base.Throughput())
	}
}

func TestPeriodicSampling(t *testing.T) {
	cfg := cfg1GPU()
	cfg.SampleEvery = 0.25
	p := Profile{Name: "gq", Phases: []Phase{{Kind: GPUPhase, Work: 2, Mem: 4 << 30}}}
	r, err := Run(cfg, [][]Profile{{p}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MemSeries[0]) < 8 {
		t.Errorf("expected ~8 periodic samples, got %d", len(r.MemSeries[0]))
	}
}

func TestErrors(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Error("zero CPU capacity should error")
	}
	// GPU phase with no devices.
	p := Profile{Name: "gq", Phases: []Phase{{Kind: GPUPhase, Work: 1, Mem: 1}}}
	if _, err := Run(Config{CPUCapacity: 10}, [][]Profile{{p}}); err == nil {
		t.Error("GPU phase without devices should error")
	}
	// GPU demand exceeding every device.
	big := Profile{Name: "big", Phases: []Phase{{Kind: GPUPhase, Work: 1, Mem: 64 << 30}}}
	if _, err := Run(cfg1GPU(), [][]Profile{{big}}); err == nil {
		t.Error("oversized GPU demand should error")
	}
}

func TestZeroWorkPhasesSkipped(t *testing.T) {
	p := Profile{Name: "q", Phases: []Phase{
		{Kind: CPUPhase, Work: 0, MaxPar: 4},
		{Kind: CPUPhase, Work: 10, MaxPar: 10},
		{Kind: GPUPhase, Work: 0},
	}}
	r, err := Run(cfg1GPU(), [][]Profile{{p}})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r.Makespan.Seconds(), 1, 1e-9) {
		t.Errorf("makespan = %v, want 1s", r.Makespan)
	}
}

func TestTrailingZeroWorkQueryRecorded(t *testing.T) {
	p := Profile{Name: "q", Phases: []Phase{
		{Kind: CPUPhase, Work: 10, MaxPar: 10},
		{Kind: GPUPhase, Work: 0},
	}}
	r, err := Run(cfg1GPU(), [][]Profile{{p, p}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Queries) != 2 {
		t.Fatalf("queries recorded = %d, want 2", len(r.Queries))
	}
}
