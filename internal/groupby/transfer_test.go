package groupby

import (
	"runtime"
	"testing"

	"blugpu/internal/gpu"
	"blugpu/internal/monitor"
	"blugpu/internal/vtime"
)

// TestRunGPUAccountsD2H pins the chain-exit accounting: the dense result
// block leaves the device through Device.CopyFromDevice, so an attached
// monitor must see real D2H transfers with the result's byte volume —
// not the zero the counters reported when the copy was modeled only as
// kernel-side time.
func TestRunGPUAccountsD2H(t *testing.T) {
	mon := monitor.New()
	dev := gpu.NewDevice(0, vtime.TeslaK40(), gpu.WithSink(mon))
	in := buildInput(makeKeys(20000, 3000), stdAggs, 3000)
	res := reserveFor(t, dev, in)
	defer res.Release()

	out, err := RunGPU(in, 1, res, vtime.Default(), GPUOptions{Kernel: K1Regular, Pinned: true})
	if err != nil {
		t.Fatal(err)
	}
	h2d, d2h := mon.Transfers()
	if h2d.Count == 0 || h2d.Bytes == 0 {
		t.Errorf("no H2D transfers recorded: %+v", h2d)
	}
	if d2h.Count == 0 {
		t.Fatalf("chain-exit copy not accounted: no D2H transfers recorded")
	}
	// The result block is (key + agg columns) x groups at 8 bytes per
	// word; the recorded bytes must cover at least that.
	minBytes := int64(out.Groups) * int64(1+len(stdAggs)) * 8
	if d2h.Bytes < minBytes {
		t.Errorf("D2H bytes = %d, want >= %d (the dense result block)", d2h.Bytes, minBytes)
	}
	if d2h.Total <= 0 {
		t.Error("D2H transfer carries no modeled time")
	}
	if out.Stats.TransferOut <= 0 {
		t.Errorf("result stats missing transfer-out time: %+v", out.Stats)
	}
}

// TestRunGPUFusedSkipsInputStaging is the fused-path counterpart: with
// GPUOptions.Fused the input is already device-resident (the engine's
// chain uploaded or found it), so RunGPU must not stage it again — no
// H2D traffic — while the exit copy still pays D2H.
func TestRunGPUFusedSkipsInputStaging(t *testing.T) {
	mon := monitor.New()
	dev := gpu.NewDevice(0, vtime.TeslaK40(), gpu.WithSink(mon))
	in := buildInput(makeKeys(20000, 3000), stdAggs, 3000)
	res := reserveFor(t, dev, in)
	defer res.Release()

	if _, err := RunGPU(in, 1, res, vtime.Default(), GPUOptions{Kernel: K1Regular, Pinned: true, Fused: true}); err != nil {
		t.Fatal(err)
	}
	h2d, d2h := mon.Transfers()
	if h2d.Count != 0 || h2d.Bytes != 0 {
		t.Errorf("fused run staged input over PCIe anyway: %+v", h2d)
	}
	if d2h.Count == 0 || d2h.Bytes == 0 {
		t.Errorf("fused run skipped the chain-exit D2H copy: %+v", d2h)
	}
}

// stagedInput is the ruler's task: 1M rows in 1000 groups with the four
// standard aggregates, keys compressed to 4-byte codes.
func stagedInput() *Input {
	in := buildInput(makeKeys(1_000_000, 1000), stdAggs, 1000)
	in.KeyBits = 10
	return in
}

// TestRunGPUStagedAllocations is the shadow-copy ruler: device memory no
// kernel computes on is accounted, not filled, so a staged RunGPU over 1M
// rows may allocate its hash table, its result and a stated slack — never
// a host or device copy of its input (tens of MB here).
func TestRunGPUStagedAllocations(t *testing.T) {
	in := stagedInput()
	res := reserveFor(t, testDevice(), in)
	defer res.Release()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := RunGPU(in, 1, res, vtime.Default(), GPUOptions{Kernel: K1Regular, Pinned: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	table := TableBytes(TableSlots(in.EstGroups, in.NumRows), in.EntryWords())
	result := int64(out.Groups) * int64(1+len(in.Aggs)) * 8
	const slack = 256 << 10
	if got := int64(after.TotalAlloc - before.TotalAlloc); got > table+result+slack {
		t.Errorf("staged RunGPU allocated %d bytes, want <= table %d + result %d + slack %d", got, table, result, slack)
	}
}

// BenchmarkRunGPUStaged is the make-bench ruler for the staged device
// group-by: claims and transfers for the input, the table build, the
// kernel and the result transfer, with allocations reported.
func BenchmarkRunGPUStaged(b *testing.B) {
	in := stagedInput()
	dev := testDevice()
	model := vtime.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dev.Reserve(MemoryDemand(in))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RunGPU(in, 1, res, model, GPUOptions{Kernel: K1Regular, Pinned: true}); err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}

// TestDemandBound: before the evaluator chain has run, the bound is
// MemoryDemand itself for a narrow key of the same width, and no less
// than it for a wide one, whose layout it bounds at 8 bytes a column.
func TestDemandBound(t *testing.T) {
	payloads := [][]uint64{{}, nil, {}}
	for _, c := range []struct {
		keyBits, keyBytes, keys int
	}{{12, 8, 2}, {40, 8, 3}, {96, 12, 2}, {136, 17, 2}} {
		in := &Input{NumRows: 100_000, KeyBytes: c.keyBytes, KeyBits: c.keyBits, EstGroups: 3000, Aggs: make([]AggSpec, 3), Payloads: payloads}
		got, want := DemandBound(100_000, 3000, c.keyBits, c.keys, 3, 2), MemoryDemand(in)
		if in.Wide() && got < want || !in.Wide() && got != want {
			t.Errorf("%d-bit key over %d columns: bound %d, demand %d", c.keyBits, c.keys, got, want)
		}
	}
}
