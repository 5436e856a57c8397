package bsort

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"blugpu/internal/gpu"
	"blugpu/internal/sched"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// twoGPUs runs each GPU job once on two K40s through the scheduler, with
// no retry: the engine's device contract is where retries live.
func twoGPUs() DeviceFunc {
	s, err := sched.New(gpu.NewDevice(0, vtime.TeslaK40()), gpu.NewDevice(1, vtime.TeslaK40()))
	if err != nil {
		panic(err)
	}
	return func(tc trace.Context, at vtime.Time, demand int64, run func(*gpu.Reservation) error) (int, error) {
		dev, err := s.Run(tc, at, demand, nil, run)
		if dev == nil {
			return -1, err
		}
		return dev.ID(), err
	}
}

// intSource builds a KeySource over int64 values.
func intSource(vals []int64) *BytesKeySource {
	keys := make([][]byte, len(vals))
	for i, v := range vals {
		keys[i] = AppendInt64Key(nil, v, false)
	}
	return NewBytesKeySource(keys)
}

// flatIntSource is intSource over the flat partial-key buffer the engine
// sorts through: the same two segments per value, no byte keys.
func flatIntSource(vals []int64) *FlatKeySource {
	words := make([]uint32, 0, 2*len(vals))
	for _, v := range vals {
		u := uint64(v) ^ (1 << 63)
		words = append(words, uint32(u>>32), uint32(u))
	}
	return NewFlatKeySource(words, len(vals), 2)
}

// TestFlatKeySourceMatchesBytes holds the flat source to the byte-key
// oracle segment by segment, and Sort over either to the same permutation
// and queue shape.
func TestFlatKeySourceMatchesBytes(t *testing.T) {
	vals := append(randomVals(3000, 9), math.MinInt64, math.MaxInt64, -1, 0)
	flat, ref := flatIntSource(vals), intSource(vals)
	if flat.NumRows() != ref.NumRows() || flat.MaxDepth() != ref.MaxDepth() {
		t.Fatalf("shape %dx%d, want %dx%d", flat.NumRows(), flat.MaxDepth(), ref.NumRows(), ref.MaxDepth())
	}
	for r := range vals {
		for d := 0; d < ref.MaxDepth(); d++ {
			if got, want := flat.PartialKey(int32(r), d), ref.PartialKey(int32(r), d); got != want {
				t.Fatalf("row %d depth %d: segment %08x, want %08x", r, d, got, want)
			}
		}
	}
	cfg := Config{Model: vtime.Default(), Device: twoGPUs(), Degree: 2, GPUThreshold: 256, Pinned: true}
	sameSort := func(flat *FlatKeySource, ref *BytesKeySource) []int32 {
		t.Helper()
		gotPerm, gotSt, err := Sort(flat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantPerm, wantSt, err := Sort(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotPerm, wantPerm) || gotSt != wantSt {
			t.Fatalf("flat sort diverges from byte-key sort: %d rows, stats %+v, want %d rows, %+v",
				len(gotPerm), gotSt, len(wantPerm), wantSt)
		}
		return gotPerm
	}
	sameSort(flat, ref)

	// A key of no columns (RANK() OVER ()) has depth 0 and still has rows:
	// both sources sort them to the identity permutation.
	const n = 700
	perm := sameSort(NewFlatKeySource(nil, n, 0), NewBytesKeySource(make([][]byte, n)))
	if len(perm) != n {
		t.Fatalf("zero-depth sort returned %d rows, want %d", len(perm), n)
	}
	for i, r := range perm {
		if int(r) != i {
			t.Fatalf("zero-depth sort moved row %d to %d", r, i)
		}
	}
}

func checkSorted(t *testing.T, vals []int64, perm []int32) {
	t.Helper()
	if len(perm) != len(vals) {
		t.Fatalf("perm length %d, want %d", len(perm), len(vals))
	}
	seen := make([]bool, len(vals))
	for i := 1; i < len(perm); i++ {
		a, b := vals[perm[i-1]], vals[perm[i]]
		if a > b {
			t.Fatalf("out of order at %d: %d > %d", i, a, b)
		}
		if a == b && perm[i-1] > perm[i] {
			t.Fatalf("tie not broken by row id at %d", i)
		}
	}
	for _, p := range perm {
		if seen[p] {
			t.Fatalf("row %d appears twice", p)
		}
		seen[p] = true
	}
}

func TestEncodings(t *testing.T) {
	// Int64 encoding must be order-preserving under bytewise comparison.
	ints := []int64{-1 << 62, -1000, -1, 0, 1, 7, 1 << 40}
	for i := 1; i < len(ints); i++ {
		a := AppendInt64Key(nil, ints[i-1], false)
		b := AppendInt64Key(nil, ints[i], false)
		if string(a) >= string(b) {
			t.Errorf("int encoding not monotone: %d vs %d", ints[i-1], ints[i])
		}
		// DESC inverts.
		ad := AppendInt64Key(nil, ints[i-1], true)
		bd := AppendInt64Key(nil, ints[i], true)
		if string(ad) <= string(bd) {
			t.Errorf("desc int encoding not anti-monotone: %d vs %d", ints[i-1], ints[i])
		}
	}
	floats := []float64{-1e300, -3.5, -0.0, 0.0, 1e-10, 2.5, 1e300}
	for i := 1; i < len(floats); i++ {
		a := AppendFloat64Key(nil, floats[i-1], false)
		b := AppendFloat64Key(nil, floats[i], false)
		if string(a) > string(b) {
			t.Errorf("float encoding not monotone: %g vs %g", floats[i-1], floats[i])
		}
	}
	u32s := []uint32{0, 1, 255, 1 << 16, 1<<31 + 5}
	for i := 1; i < len(u32s); i++ {
		a := AppendUint32Key(nil, u32s[i-1], false)
		b := AppendUint32Key(nil, u32s[i], false)
		if string(a) >= string(b) {
			t.Errorf("u32 encoding not monotone")
		}
	}
	if got := len(EncodePad([]byte{1, 2, 3})); got != 4 {
		t.Errorf("pad to %d, want 4", got)
	}
}

func TestEntryPacking(t *testing.T) {
	e := MakeEntry(0xDEADBEEF, 42)
	if e.Key() != 0xDEADBEEF || e.Payload() != 42 {
		t.Fatalf("entry round trip: key=%x payload=%d", e.Key(), e.Payload())
	}
	// Entries order by key under plain integer comparison.
	if MakeEntry(2, 0) <= MakeEntry(1, 0xFFFFFFFF) {
		t.Error("entries must order by key first")
	}
}

func TestCPUOnlySort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(1000) - 500
	}
	perm, st, err := Sort(intSource(vals), Config{Model: vtime.Default(), Degree: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, vals, perm)
	if st.GPUJobs != 0 {
		t.Errorf("CPU-only config ran %d GPU jobs", st.GPUJobs)
	}
	if st.CPUJobs == 0 || st.Modeled <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHybridSortUsesGPU(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]int64, 200_000)
	for i := range vals {
		vals[i] = rng.Int63()
	}
	cfg := Config{
		Model:        vtime.Default(),
		Device:       twoGPUs(),
		Degree:       24,
		GPUThreshold: 1 << 14,
		Pinned:       true,
	}
	perm, st, err := Sort(intSource(vals), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, vals, perm)
	if st.GPUJobs == 0 {
		t.Error("large sort should dispatch GPU jobs")
	}
	if st.GPUTime <= 0 || st.KeyGen <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDuplicateRangeRecursion(t *testing.T) {
	// Values sharing the top 4 key bytes force duplicate ranges: the high
	// 32 bits of the encoded key are equal for small non-negative ints.
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 100_000)
	for i := range vals {
		vals[i] = rng.Int63n(50_000) // top 4 encoded bytes identical
	}
	cfg := Config{
		Model:        vtime.Default(),
		Device:       twoGPUs(),
		Degree:       8,
		GPUThreshold: 1 << 14,
		Pinned:       true,
	}
	perm, st, err := Sort(intSource(vals), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, vals, perm)
	if st.MaxDepth == 0 {
		t.Error("duplicate ranges should force deeper key depths")
	}
}

func TestAllEqualKeys(t *testing.T) {
	vals := make([]int64, 70_000)
	cfg := Config{
		Model:        vtime.Default(),
		Device:       twoGPUs(),
		GPUThreshold: 1 << 14,
		Degree:       4,
	}
	perm, _, err := Sort(intSource(vals), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All equal: permutation must be identity (row-id tie-break).
	for i, p := range perm {
		if int(p) != i {
			t.Fatalf("equal keys should yield identity permutation, perm[%d]=%d", i, p)
		}
	}
}

func TestSmallInputsStayOnCPU(t *testing.T) {
	vals := []int64{5, 3, 8, 1}
	cfg := Config{Model: vtime.Default(), Device: twoGPUs(), Degree: 2}
	perm, st, err := Sort(intSource(vals), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, vals, perm)
	if st.GPUJobs != 0 {
		t.Error("tiny sort must not use the GPU")
	}
}

func TestPartitionedSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vals := make([]int64, 150_000)
	for i := range vals {
		vals[i] = rng.Int63() - rng.Int63()
	}
	cfg := Config{
		Model:        vtime.Default(),
		Device:       twoGPUs(),
		Degree:       16,
		GPUThreshold: 1 << 14,
		Partitions:   4,
		Pinned:       true,
	}
	perm, st, err := Sort(intSource(vals), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, vals, perm)
	if st.Jobs < 2 {
		t.Errorf("partitioned sort should create multiple jobs, got %d", st.Jobs)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	perm, st, err := Sort(intSource(nil), Config{Model: vtime.Default()})
	if err != nil || len(perm) != 0 || st.Rows != 0 {
		t.Errorf("empty sort: perm=%v st=%+v err=%v", perm, st, err)
	}
	perm, _, err = Sort(intSource([]int64{42}), Config{Model: vtime.Default()})
	if err != nil || len(perm) != 1 || perm[0] != 0 {
		t.Errorf("single-row sort: %v, %v", perm, err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, _, err := Sort(intSource([]int64{1}), Config{}); err == nil {
		t.Error("missing model should error")
	}
}

func TestMultiColumnKey(t *testing.T) {
	// Sort by (a ASC, b DESC): encode both into one key.
	type row struct{ a, b int64 }
	rows := []row{{1, 5}, {0, 2}, {1, 9}, {0, 7}, {1, 5}}
	keys := make([][]byte, len(rows))
	for i, r := range rows {
		k := AppendInt64Key(nil, r.a, false)
		k = AppendInt64Key(k, r.b, true)
		keys[i] = k
	}
	perm, _, err := Sort(NewBytesKeySource(keys), Config{Model: vtime.Default(), Degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{3, 1, 2, 0, 4} // (0,7) (0,2) (1,9) (1,5)@0 (1,5)@4
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("perm = %v, want %v", perm, want)
		}
	}
}

func TestSortMatchesReferenceProperty(t *testing.T) {
	cfg := Config{
		Model:        vtime.Default(),
		Device:       twoGPUs(),
		Degree:       8,
		GPUThreshold: 256, // force GPU involvement on small inputs
		Pinned:       true,
	}
	f := func(raw []int16) bool {
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		perm, _, err := Sort(intSource(vals), cfg)
		if err != nil {
			return false
		}
		got := make([]int64, len(vals))
		for i, p := range perm {
			got[i] = vals[p]
		}
		want := append([]int64(nil), vals...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
