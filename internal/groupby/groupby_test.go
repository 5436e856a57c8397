package groupby

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"blugpu/internal/columnar"
	"blugpu/internal/gpu"
	"blugpu/internal/murmur"
	"blugpu/internal/vtime"
)

// buildInput constructs a narrow-key task: keys[i] groups row i; payload
// for each non-COUNT aggregate is derived deterministically from the row.
func buildInput(keys []uint64, aggs []AggSpec, est uint64) *Input {
	n := len(keys)
	in := &Input{
		NumRows:   n,
		Keys:      keys,
		KeyBytes:  8,
		Hashes:    make([]uint64, n),
		Aggs:      aggs,
		Payloads:  make([][]uint64, len(aggs)),
		EstGroups: est,
	}
	for i, k := range keys {
		in.Hashes[i] = k // mod hashing for <=64-bit keys
	}
	for a, spec := range aggs {
		if spec.Kind == Count {
			continue
		}
		p := make([]uint64, n)
		for i := range p {
			if spec.Type == columnar.Float64 {
				p[i] = math.Float64bits(float64(i%17) + 0.5)
			} else {
				p[i] = uint64(int64(i%23 - 11))
			}
		}
		in.Payloads[a] = p
	}
	return in
}

// keyOf is key i of keys, kw words a key, as a map key.
func keyOf(keys []uint64, kw, i int) string { return fmt.Sprint(keys[i*kw : (i+1)*kw]) }

// refGroupBy computes the expected result with plain maps.
func refGroupBy(in *Input) map[string][]uint64 {
	out := make(map[string][]uint64)
	for i := 0; i < in.NumRows; i++ {
		k := keyOf(in.Keys, in.KeyWords(), i)
		acc := out[k]
		if acc == nil {
			acc = Mask(in)[in.KeyWords():]
			out[k] = acc
		}
		for a, spec := range in.Aggs {
			if spec.Kind == Count {
				acc[a]++
			} else {
				acc[a] = combine(spec, acc[a], in.Payloads[a][i])
			}
		}
	}
	return out
}

// checkResult verifies res against the map reference.
func checkResult(t *testing.T, in *Input, res *Result) {
	t.Helper()
	want := refGroupBy(in)
	if res.Groups != len(want) {
		t.Fatalf("groups = %d, want %d", res.Groups, len(want))
	}
	for g := 0; g < res.Groups; g++ {
		k := keyOf(res.Keys, in.KeyWords(), g)
		acc, ok := want[k]
		if !ok {
			t.Fatalf("unexpected group key %v", k)
		}
		for a, spec := range in.Aggs {
			got := res.AggWords[a][g]
			if got != acc[a] {
				t.Fatalf("group %v agg %d (%v): got %#x want %#x", k, a, spec.Kind, got, acc[a])
			}
		}
	}
}

func testDevice() *gpu.Device { return gpu.NewDevice(0, vtime.TeslaK40()) }

func reserveFor(t *testing.T, dev *gpu.Device, in *Input) *gpu.Reservation {
	t.Helper()
	res, err := dev.Reserve(MemoryDemand(in))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var stdAggs = []AggSpec{
	{Kind: Sum, Type: columnar.Int64},
	{Kind: Count},
	{Kind: Min, Type: columnar.Int64},
	{Kind: Max, Type: columnar.Float64},
}

func makeKeys(n, groups int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64((i*2654435761 + 7) % groups)
	}
	return keys
}

func TestCPUGroupBy(t *testing.T) {
	in := buildInput(makeKeys(10000, 100), stdAggs, 100)
	res, err := RunCPU(in, 24, vtime.Default())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, in, res)
	if res.Stats.Path != PathCPU || res.Stats.Modeled <= 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestCPUSingleThread(t *testing.T) {
	in := buildInput(makeKeys(500, 7), stdAggs, 7)
	res, err := RunCPU(in, 1, vtime.Default())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, in, res)
}

func TestGPUKernel1(t *testing.T) {
	in := buildInput(makeKeys(20000, 3000), stdAggs, 3000)
	dev := testDevice()
	res := reserveFor(t, dev, in)
	defer res.Release()
	out, err := RunGPU(in, 1, res, vtime.Default(), GPUOptions{Kernel: K1Regular, Pinned: true})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, in, out)
	if out.Stats.Kernel != "k1-regular" {
		t.Errorf("kernel = %s", out.Stats.Kernel)
	}
	if out.Stats.TransferIn <= 0 || out.Stats.TransferOut <= 0 || out.Stats.Modeled <= 0 {
		t.Errorf("transfer times missing: %+v", out.Stats)
	}
}

func TestGPUKernel2SmallGroups(t *testing.T) {
	// 12 groups (the birth-month example): fits shared memory easily.
	in := buildInput(makeKeys(50000, 12), stdAggs, 12)
	dev := testDevice()
	res := reserveFor(t, dev, in)
	defer res.Release()
	out, err := RunGPU(in, 1, res, vtime.Default(), GPUOptions{Kernel: K2Shared, Pinned: true})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, in, out)
}

func TestGPUKernel3RowLock(t *testing.T) {
	manyAggs := []AggSpec{
		{Kind: Sum, Type: columnar.Int64},
		{Kind: Sum, Type: columnar.Float64},
		{Kind: Min, Type: columnar.Int64},
		{Kind: Max, Type: columnar.Int64},
		{Kind: Min, Type: columnar.Float64},
		{Kind: Max, Type: columnar.Float64},
		{Kind: Count},
	}
	in := buildInput(makeKeys(20000, 5000), manyAggs, 5000)
	dev := testDevice()
	res := reserveFor(t, dev, in)
	defer res.Release()
	out, err := RunGPU(in, 1, res, vtime.Default(), GPUOptions{Kernel: K3RowLock, Pinned: true})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, in, out)
}

// buildWideInput constructs a two-word-key task in the given number of
// groups, hashed by Murmur over the key's bytes as the HASH evaluator
// hashes wide keys.
func buildWideInput(n, groups int, aggs []AggSpec) *Input {
	in := &Input{
		NumRows:   n,
		Keys:      make([]uint64, 2*n),
		KeyBytes:  16,
		KeyBits:   128,
		Hashes:    make([]uint64, n),
		Aggs:      aggs,
		Payloads:  make([][]uint64, len(aggs)),
		EstGroups: uint64(groups),
	}
	k := make([]byte, 16)
	for i := 0; i < n; i++ {
		g := uint64(i % groups)
		in.Keys[2*i], in.Keys[2*i+1] = g, g*31+7
		binary.LittleEndian.PutUint64(k, g)
		binary.LittleEndian.PutUint64(k[8:], g*31+7)
		in.Hashes[i] = murmur.Sum64(k, 0) // Murmur for >64-bit keys
	}
	for a, spec := range aggs {
		if spec.Kind == Count {
			continue
		}
		p := make([]uint64, n)
		for i := range p {
			p[i] = uint64(int64(i % 13))
		}
		in.Payloads[a] = p
	}
	return in
}

func TestGPUWideKeys(t *testing.T) {
	aggs := []AggSpec{{Kind: Sum, Type: columnar.Int64}, {Kind: Count}}
	in := buildWideInput(8000, 250, aggs)
	dev := testDevice()
	for _, k := range []Kernel{K1Regular, K3RowLock} {
		res := reserveFor(t, dev, in)
		out, err := RunGPU(in, 1, res, vtime.Default(), GPUOptions{Kernel: k, Pinned: true})
		res.Release()
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		checkResult(t, in, out)
	}
}

func TestCPUWideKeys(t *testing.T) {
	aggs := []AggSpec{{Kind: Max, Type: columnar.Int64}}
	in := buildWideInput(3000, 40, aggs)
	res, err := RunCPU(in, 8, vtime.Default())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, in, res)
}

func TestErrorPathRetry(t *testing.T) {
	// Estimate of 10 but 200 actual groups: table fills, the error path
	// doubles once; 10*1.5 -> 16 slots, doubled to 32 — still too small,
	// so the retry fails and the caller falls back.
	in := buildInput(makeKeys(5000, 200), stdAggs, 10)
	dev := testDevice()
	res := reserveFor(t, dev, in)
	defer res.Release()
	_, err := RunGPU(in, 1, res, vtime.Default(), GPUOptions{Kernel: K1Regular, Pinned: true})
	if !errors.Is(err, ErrTableFull) {
		t.Fatalf("want ErrTableFull after exhausted retry, got %v", err)
	}
}

func TestErrorPathRetrySucceeds(t *testing.T) {
	// Estimate 40 -> 64 slots; 100 actual groups overflow; doubling to 128
	// slots fits. The query must still complete (Section 4.2).
	in := buildInput(makeKeys(5000, 100), stdAggs, 40)
	dev := testDevice()
	res := reserveFor(t, dev, in)
	defer res.Release()
	out, err := RunGPU(in, 1, res, vtime.Default(), GPUOptions{Kernel: K1Regular, Pinned: true})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, in, out)
	if out.Stats.Retried != 1 {
		t.Errorf("retried = %d, want 1", out.Stats.Retried)
	}
}

func TestModeratorChoice(t *testing.T) {
	dev := testDevice()
	// Few groups -> K2.
	small := buildInput(makeKeys(1000, 12), stdAggs, 12)
	if k := ChooseKernel(small, dev); k != K2Shared {
		t.Errorf("12 groups -> %v, want k2", k)
	}
	// Regular -> K1.
	reg := buildInput(makeKeys(100000, 5000), stdAggs, 5000)
	if k := ChooseKernel(reg, dev); k != K1Regular {
		t.Errorf("regular -> %v, want k1", k)
	}
	// Many aggregates -> K3.
	manyAggs := make([]AggSpec, 7)
	for i := range manyAggs {
		manyAggs[i] = AggSpec{Kind: Sum, Type: columnar.Int64}
	}
	many := buildInput(makeKeys(100000, 5000), manyAggs, 5000)
	if k := ChooseKernel(many, dev); k != K3RowLock {
		t.Errorf("many aggs -> %v, want k3", k)
	}
	// Low contention (rows ~ groups) -> K3.
	low := buildInput(makeKeys(10000, 10000), stdAggs, 10000)
	if k := ChooseKernel(low, dev); k != K3RowLock {
		t.Errorf("low contention -> %v, want k3", k)
	}
	// Wide keys never pick K2.
	wide := buildWideInput(1000, 5, []AggSpec{{Kind: Count}})
	if k := ChooseKernel(wide, dev); k == K2Shared {
		t.Error("wide keys must not pick the shared-memory kernel")
	}
}

func TestAutoKernelRuns(t *testing.T) {
	in := buildInput(makeKeys(30000, 12), stdAggs, 12)
	dev := testDevice()
	res := reserveFor(t, dev, in)
	defer res.Release()
	out, err := RunGPU(in, 1, res, vtime.Default(), GPUOptions{Pinned: true})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, in, out)
	if out.Stats.Kernel != "k2-shared" {
		t.Errorf("auto choice = %s, want k2-shared", out.Stats.Kernel)
	}
}

func TestKernelRace(t *testing.T) {
	in := buildInput(makeKeys(20000, 12), stdAggs, 12)
	dev := testDevice()
	res := reserveFor(t, dev, in)
	defer res.Release()
	out, err := RunGPU(in, 1, res, vtime.Default(), GPUOptions{Race: true, Pinned: true})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, in, out)
	if len(out.Stats.Raced) != 2 {
		t.Errorf("raced = %v, want two kernels", out.Stats.Raced)
	}
	// The winner of a k2-eligible race should be k2.
	if out.Stats.Kernel != "k2-shared" {
		t.Errorf("race winner = %s, want k2-shared", out.Stats.Kernel)
	}
}

func TestRaceSkippedWhenNoHeadroom(t *testing.T) {
	in := buildInput(makeKeys(5000, 12), stdAggs, 12)
	dev := testDevice()
	// Reserve exactly enough for input + one table + result: no headroom.
	slots := TableSlots(in.EstGroups, in.NumRows)
	tight := InputDeviceBytes(in) + TableBytes(slots, in.EntryWords()) + ResultDeviceBytes(in, 12)
	res, err := dev.Reserve(tight)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	out, err := RunGPU(in, 1, res, vtime.Default(), GPUOptions{Race: true, Pinned: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Stats.Raced) != 1 {
		t.Errorf("race should be skipped without memory headroom, raced=%v", out.Stats.Raced)
	}
}

func TestMaskTable1(t *testing.T) {
	// The paper's Table 1: SELECT SUM(C1), MAX(C2), MIN(C3) ... GROUP BY C1
	// with C1, C2 64-bit ints and C3 32-bit int (we model it as Int64).
	in := &Input{
		NumRows:  0,
		Keys:     []uint64{},
		KeyBytes: 8,
		Hashes:   []uint64{},
		Aggs: []AggSpec{
			{Kind: Sum, Type: columnar.Int64},
			{Kind: Max, Type: columnar.Int64},
			{Kind: Min, Type: columnar.Int64},
		},
		Payloads: [][]uint64{{}, {}, {}},
	}
	mask := Mask(in)
	if len(mask) != in.EntryWords() {
		t.Fatalf("mask len = %d, want %d", len(mask), in.EntryWords())
	}
	if mask[0] != EmptyKey {
		t.Errorf("key mask = %#x, want all Fs", mask[0])
	}
	if mask[1] != 0 {
		t.Errorf("SUM init = %d, want 0", mask[1])
	}
	if int64(mask[2]) != math.MinInt64 {
		t.Errorf("MAX init = %d, want -9223372036854775808", int64(mask[2]))
	}
	if int64(mask[3]) != math.MaxInt64 {
		t.Errorf("MIN init = %d, want 9223372036854775807", int64(mask[3]))
	}
	// 4 words -> padded to 16-byte boundary already (4 words = 32 bytes).
	if in.EntryWords()%2 != 0 {
		t.Error("entry must be 16-byte aligned")
	}
}

func TestMaskFloatInits(t *testing.T) {
	in := &Input{
		NumRows: 0, Keys: []uint64{}, KeyBytes: 8, Hashes: []uint64{},
		Aggs: []AggSpec{
			{Kind: Min, Type: columnar.Float64},
			{Kind: Max, Type: columnar.Float64},
		},
		Payloads: [][]uint64{{}, {}},
	}
	mask := Mask(in)
	if !math.IsInf(math.Float64frombits(mask[1]), 1) {
		t.Error("float MIN init should be +Inf")
	}
	if !math.IsInf(math.Float64frombits(mask[2]), -1) {
		t.Error("float MAX init should be -Inf")
	}
}

func TestValidate(t *testing.T) {
	good := buildInput(makeKeys(10, 2), stdAggs, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := buildInput(makeKeys(10, 2), stdAggs, 2)
	bad.Keys = bad.Keys[:5]
	if err := bad.Validate(); err == nil {
		t.Error("short keys should fail validation")
	}
	sentinel := buildInput(makeKeys(10, 2), stdAggs, 2)
	sentinel.Keys[3] = EmptyKey
	if err := sentinel.Validate(); err == nil {
		t.Error("sentinel key collision should fail validation")
	}
	wide := buildWideInput(10, 2, stdAggs)
	if err := wide.Validate(); err != nil {
		t.Fatal(err)
	}
	wide.Keys = wide.Keys[:19]
	if err := wide.Validate(); err == nil {
		t.Error("a wide key short of a word should fail validation")
	}
	wide = buildWideInput(10, 2, stdAggs)
	wide.Keys[1] = EmptyKey // a second word may be all ones
	if err := wide.Validate(); err != nil {
		t.Fatal(err)
	}
	wide.Keys[6] = EmptyKey
	if err := wide.Validate(); err == nil {
		t.Error("a wide key whose first word is the sentinel should fail validation")
	}
	countPayload := buildInput(makeKeys(10, 2), []AggSpec{{Kind: Count}}, 2)
	countPayload.Payloads[0] = make([]uint64, 10)
	if err := countPayload.Validate(); err == nil {
		t.Error("COUNT with payload should fail validation")
	}
	strAgg := buildInput(makeKeys(10, 2), []AggSpec{{Kind: Sum, Type: columnar.String}}, 2)
	if err := strAgg.Validate(); err == nil {
		t.Error("string payload should fail validation")
	}
}

func TestMemoryDemand(t *testing.T) {
	in := buildInput(makeKeys(1000, 50), stdAggs, 50)
	d := MemoryDemand(in)
	// Must cover at least the input vectors and the table.
	min := InputDeviceBytes(in) + TableBytes(TableSlots(50, 1000), in.EntryWords())
	if d < min {
		t.Errorf("demand %d < floor %d", d, min)
	}
	// Unknown estimate blows the table up to row count.
	unknown := buildInput(makeKeys(1000, 50), stdAggs, 0)
	if MemoryDemand(unknown) <= d {
		t.Error("unknown group estimate should demand more memory")
	}
}

func TestTableSlots(t *testing.T) {
	if s := TableSlots(0, 100); s < 150 {
		t.Errorf("unknown estimate: slots=%d, want >= 1.5x rows", s)
	}
	if s := TableSlots(10, 1_000_000); s != 16 {
		t.Errorf("est 10 -> %d slots, want 16", s)
	}
	if s := TableSlots(1000, 1_000_000); s != 2048 {
		t.Errorf("est 1000 -> %d slots, want 2048", s)
	}
	// Power of two.
	for _, est := range []uint64{1, 5, 100, 999, 12345} {
		s := TableSlots(est, 1<<20)
		if s&(s-1) != 0 {
			t.Errorf("slots %d not a power of two", s)
		}
	}
}

func TestGPUCostShapes(t *testing.T) {
	model := vtime.Default()
	dev := testDevice()
	// Shared-memory kernel should model faster than k1 on few groups.
	in := buildInput(makeKeys(200000, 12), stdAggs, 12)
	res1 := reserveFor(t, dev, in)
	k1, err := RunGPU(in, 1, res1, model, GPUOptions{Kernel: K1Regular, Pinned: true})
	res1.Release()
	if err != nil {
		t.Fatal(err)
	}
	res2 := reserveFor(t, dev, in)
	k2, err := RunGPU(in, 1, res2, model, GPUOptions{Kernel: K2Shared, Pinned: true})
	res2.Release()
	if err != nil {
		t.Fatal(err)
	}
	if k2.Stats.KernelTime >= k1.Stats.KernelTime {
		t.Errorf("k2 (%v) should beat k1 (%v) on 12 groups", k2.Stats.KernelTime, k1.Stats.KernelTime)
	}
}

func TestK3BeatsK1OnManyAggs(t *testing.T) {
	model := vtime.Default()
	dev := testDevice()
	aggs := make([]AggSpec, 8)
	for i := range aggs {
		aggs[i] = AggSpec{Kind: Sum, Type: columnar.Int64}
	}
	in := buildInput(makeKeys(100000, 50000), aggs, 50000)
	res1 := reserveFor(t, dev, in)
	k1, err := RunGPU(in, 1, res1, model, GPUOptions{Kernel: K1Regular, Pinned: true})
	res1.Release()
	if err != nil {
		t.Fatal(err)
	}
	res3 := reserveFor(t, dev, in)
	k3, err := RunGPU(in, 1, res3, model, GPUOptions{Kernel: K3RowLock, Pinned: true})
	res3.Release()
	if err != nil {
		t.Fatal(err)
	}
	if k3.Stats.KernelTime >= k1.Stats.KernelTime {
		t.Errorf("k3 (%v) should beat k1 (%v) with 8 aggregates at low contention",
			k3.Stats.KernelTime, k1.Stats.KernelTime)
	}
}

// TestKernelCostIgnoresInsertOrder: a kernel's modeled time is a function
// of its input, not of the order its keys reached the table. The keys are
// skewed onto 64 spaced home slots (32 colliding keys each, a few hot), so
// 32-slot probe chains form, and each degree partitions the rows — and so
// orders the merged groups — differently.
func TestKernelCostIgnoresInsertOrder(t *testing.T) {
	in := buildInput(skewedKeys(), stdAggs, 2048)
	model := vtime.Default()
	dev := testDevice()
	for _, k := range []Kernel{K1Regular, K3RowLock} {
		var first vtime.Duration
		for _, degree := range []int{1, 2, 3, 8, 24} {
			res := reserveFor(t, dev, in)
			out, err := RunGPU(in, degree, res, model, GPUOptions{Kernel: k, Pinned: true})
			res.Release()
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, in, out)
			if degree == 1 {
				first = out.Stats.KernelTime
			} else if out.Stats.KernelTime != first {
				t.Errorf("%v: degree %d modeled %.9f ms, degree 1 modeled %.9f ms",
					k, degree, out.Stats.KernelTime.Milliseconds(), first.Milliseconds())
			}
		}
	}
}

func TestEmptyInput(t *testing.T) {
	in := buildInput(nil, stdAggs, 0)
	cpu, err := RunCPU(in, 4, vtime.Default())
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Groups != 0 {
		t.Error("empty input should give zero groups")
	}
	dev := testDevice()
	res, _ := dev.Reserve(1 << 20)
	defer res.Release()
	out, err := RunGPU(in, 1, res, vtime.Default(), GPUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Groups != 0 {
		t.Error("empty GPU input should give zero groups")
	}
}

func TestGPUMatchesCPUProperty(t *testing.T) {
	model := vtime.Default()
	dev := testDevice()
	f := func(seed uint32, groupsRaw uint8, kernelRaw uint8) bool {
		groups := int(groupsRaw%60) + 1
		n := 500 + int(seed%2000)
		keys := make([]uint64, n)
		r := uint64(seed)*2654435761 + 1
		for i := range keys {
			r = r*6364136223846793005 + 1442695040888963407
			keys[i] = (r >> 33) % uint64(groups)
		}
		in := buildInput(keys, stdAggs, uint64(groups))
		cpuRes, err := RunCPU(in, 8, model)
		if err != nil {
			return false
		}
		kernel := []Kernel{KAuto, K1Regular, K3RowLock}[kernelRaw%3]
		res, err := dev.Reserve(MemoryDemand(in))
		if err != nil {
			return false
		}
		defer res.Release()
		gpuRes, err := RunGPU(in, 8, res, model, GPUOptions{Kernel: kernel, Pinned: true})
		if err != nil {
			return false
		}
		if cpuRes.Groups != gpuRes.Groups {
			return false
		}
		// Compare as sorted (key, aggs...) tuples.
		return sameResults(cpuRes, gpuRes, len(stdAggs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestDeviceAnswerIsCPUAnswer: at one degree, every kernel, the race and
// the table-full retry answer with RunCPU's aggregation loop — float SUMs
// to the bit, groups in the same order — over inputs the loop splits into
// several partitions, narrow and wide.
func TestDeviceAnswerIsCPUAnswer(t *testing.T) {
	aggs := append(slices.Clone(stdAggs), AggSpec{Kind: Sum, Type: columnar.Float64})
	model := vtime.Default()
	dev := testDevice()
	for _, c := range []struct {
		name string
		in   *Input
	}{
		{"few-groups", buildInput(makeKeys(100_000, 12), aggs, 12)},
		{"many-groups", buildInput(makeKeys(100_000, 20_000), aggs, 20_000)},
		{"low-estimate", buildInput(makeKeys(100_000, 3000), aggs, 1000)},
		{"wide", buildWideInput(100_000, 500, aggs)},
	} {
		for _, degree := range []int{1, 8} {
			want, err := RunCPU(c.in, degree, model)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []GPUOptions{{Kernel: K1Regular}, {Kernel: K2Shared}, {Kernel: K3RowLock}, {Race: true}} {
				res := reserveFor(t, dev, c.in)
				got, err := RunGPU(c.in, degree, res, model, opts)
				res.Release()
				if errors.Is(err, ErrTableFull) && opts.Kernel == K2Shared {
					continue // the shared-memory tables cannot hold this input
				}
				if err != nil {
					t.Fatalf("%s degree %d %+v: %v", c.name, degree, opts, err)
				}
				if !reflect.DeepEqual(got.Keys, want.Keys) ||
					!reflect.DeepEqual(got.AggWords, want.AggWords) {
					t.Errorf("%s degree %d %s: device answer differs from RunCPU's", c.name, degree, got.Stats.Kernel)
				}
			}
		}
	}
}

func sameResults(a, b *Result, aggs int) bool {
	type row struct {
		key  uint64
		aggs [8]uint64
	}
	collect := func(r *Result) []row {
		rows := make([]row, r.Groups)
		for g := 0; g < r.Groups; g++ {
			rows[g].key = r.Keys[g]
			for x := 0; x < aggs; x++ {
				rows[g].aggs[x] = r.AggWords[x][g]
			}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
		return rows
	}
	ra, rb := collect(a), collect(b)
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}
