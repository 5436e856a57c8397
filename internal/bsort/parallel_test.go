package bsort

import (
	"fmt"
	"math/rand"
	"testing"

	"blugpu/internal/vtime"
)

var testDegrees = []int{1, 2, 8}

// randomVals covers the depth-2 int64 key path with a duplicate-heavy
// distribution so duplicate ranges requeue at the next depth.
func randomVals(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(97) - 48
	}
	return vals
}

func sortDegree(t *testing.T, vals []int64, cfg Config) ([]int32, Stats) {
	t.Helper()
	perm, st, err := Sort(intSource(vals), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return perm, st
}

// TestSortDegreeMatchesSequential proves the permutation and the
// queue-shape stats are identical at every degree, for both the CPU-only
// and the partitioned configuration, including sizes that cross the
// partition-parallel host sort threshold.
func TestSortDegreeMatchesSequential(t *testing.T) {
	sizes := []int{0, 1, 5, 63, 1000, hostPartitionMin + 123}
	for _, n := range sizes {
		vals := randomVals(n, int64(n)+1)
		for _, partitions := range []int{0, 4} {
			base := Config{Model: vtime.Default(), Degree: 1, Partitions: partitions}
			seqPerm, seqSt := sortDegree(t, vals, base)
			for _, d := range testDegrees[1:] {
				cfg := base
				cfg.Degree = d
				perm, st := sortDegree(t, vals, cfg)
				label := fmt.Sprintf("n=%d partitions=%d degree=%d", n, partitions, d)
				if len(perm) != len(seqPerm) {
					t.Fatalf("%s: perm length %d != %d", label, len(perm), len(seqPerm))
				}
				for i := range perm {
					if perm[i] != seqPerm[i] {
						t.Fatalf("%s: perm[%d] = %d, want %d", label, i, perm[i], seqPerm[i])
					}
				}
				if st.Jobs != seqSt.Jobs || st.CPUJobs != seqSt.CPUJobs ||
					st.GPUJobs != seqSt.GPUJobs || st.MaxDepth != seqSt.MaxDepth {
					t.Fatalf("%s: stats %+v, want %+v", label, st, seqSt)
				}
			}
		}
	}
}

// TestSortDegreeMatchesWithGPU repeats the differential check with the
// device path enabled, where duplicate ranges requeue at deeper depths.
func TestSortDegreeMatchesWithGPU(t *testing.T) {
	vals := randomVals(1<<17, 7)
	base := Config{
		Model:        vtime.Default(),
		Device:       twoGPUs(),
		Degree:       1,
		GPUThreshold: 1 << 12,
	}
	seqPerm, seqSt := sortDegree(t, vals, base)
	if seqSt.GPUJobs == 0 {
		t.Fatal("test did not exercise the GPU path")
	}
	for _, d := range testDegrees[1:] {
		cfg := base
		cfg.Device = twoGPUs()
		cfg.Degree = d
		perm, st := sortDegree(t, vals, cfg)
		for i := range perm {
			if perm[i] != seqPerm[i] {
				t.Fatalf("degree %d: perm[%d] = %d, want %d", d, i, perm[i], seqPerm[i])
			}
		}
		if st.Jobs != seqSt.Jobs || st.MaxDepth != seqSt.MaxDepth {
			t.Fatalf("degree %d: stats %+v, want %+v", d, st, seqSt)
		}
	}
}

// TestBuildKeyBuffer checks the exported partial-key-buffer build against
// a direct sequential construction at every depth and degree.
func TestBuildKeyBuffer(t *testing.T) {
	vals := randomVals(4097, 3)
	src := intSource(vals)
	for depth := 0; depth < src.MaxDepth(); depth++ {
		want := make([]Entry, src.NumRows())
		for i := range want {
			want[i] = MakeEntry(src.PartialKey(int32(i), depth), uint32(i))
		}
		for _, d := range testDegrees {
			got := BuildKeyBuffer(src, depth, d)
			if len(got) != len(want) {
				t.Fatalf("depth=%d degree=%d: %d entries, want %d", depth, d, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("depth=%d degree=%d: entry %d = %x, want %x", depth, d, i, got[i], want[i])
				}
			}
		}
	}
}

// TestHostSortRangeCrossesPartitionPath sorts a range just above the
// partition threshold directly and checks it against sort at degree 1.
func TestHostSortRangeCrossesPartitionPath(t *testing.T) {
	n := hostPartitionMin + 77
	vals := randomVals(n, 11)
	src := intSource(vals)
	mk := func(degree int) []Entry {
		es := BuildKeyBuffer(src, 0, degree)
		hostSortRange(es, Range{0, n}, 0, src, degree)
		return es
	}
	want := mk(1)
	for _, d := range testDegrees[1:] {
		got := mk(d)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("degree %d: entry %d = %x, want %x", d, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkPartialKeyBuild tracks the paper's host-side partial key
// buffer generation; compare degree sub-benchmarks for the speedup.
func BenchmarkPartialKeyBuild(b *testing.B) {
	const n = 1 << 20
	vals := randomVals(n, 5)
	src := flatIntSource(vals)
	for _, degree := range []int{1, 8} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				BuildKeyBuffer(src, 0, degree)
			}
		})
	}
}

// panicSource is a KeySource whose every partial-key fetch panics.
type panicSource struct{ rows int }

func (s panicSource) NumRows() int                 { return s.rows }
func (s panicSource) MaxDepth() int                { return 2 }
func (s panicSource) PartialKey(int32, int) uint32 { panic("key fetch blew up") }

// TestHostSortRangeReraisesBucketPanic: the partition-parallel host sort
// compares inside its bucket workers; a panic there must reach the caller.
func TestHostSortRangeReraisesBucketPanic(t *testing.T) {
	n := hostPartitionMin + 123
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = MakeEntry(uint32(i%7)<<24, uint32(i))
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		hostSortRange(entries, Range{0, n}, 0, panicSource{n}, 4)
		return nil
	}()
	if got != "key fetch blew up" {
		t.Fatalf("recovered %v, want the bucket worker's panic", got)
	}
}

// sequentialPass is the stable counting-sort pass RadixPass replaced: one
// histogram, one prefix sum, one scatter in input order.
func sequentialPass(keys []uint64, vals []int32, shift uint) ([]uint64, []int32, [257]int) {
	var offsets [257]int
	for _, k := range keys {
		offsets[int(byte(k>>shift))+1]++
	}
	for d := 1; d <= 256; d++ {
		offsets[d] += offsets[d-1]
	}
	next := offsets
	outK, outV := make([]uint64, len(keys)), make([]int32, len(keys))
	for i, k := range keys {
		d := byte(k >> shift)
		outK[next[d]], outV[next[d]] = k, vals[i]
		next[d]++
	}
	return outK, outV, offsets
}

// TestRadixPassMatchesSequential: at degrees 1, 2, 8 and 24, below and
// above the grain, over spread digits, over keys that all share the
// pass's digit, and with duplicates, the pass writes what the sequential
// stable scatter does, values alongside, and the same digit offsets; a
// pass whose keys share one digit reports that it moved nothing.
func TestRadixPassMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{0, 1, 100, radixGrain - 1, radixGrain*3 + 17, radixGrain * 40} {
		inputs := map[string][]uint64{"spread": make([]uint64, n), "one digit": make([]uint64, n), "duplicates": make([]uint64, n)}
		for i := 0; i < n; i++ {
			inputs["spread"][i] = rng.Uint64()
			inputs["one digit"][i] = rng.Uint64()&^(0xFF<<16) | 0x5A<<16
			inputs["duplicates"][i] = uint64(rng.Intn(3)) << 16
		}
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(i)
		}
		for name, keys := range inputs {
			for _, shift := range []uint{0, 16, 56} {
				wantK, wantV, wantOffs := sequentialPass(keys, vals, shift)
				oneDigit := n == 0 || wantOffs[int(byte(keys[0]>>shift))+1]-wantOffs[int(byte(keys[0]>>shift))] == n
				for _, degree := range []int{1, 2, 8, 24} {
					label := fmt.Sprintf("%s n=%d shift=%d degree=%d", name, n, shift, degree)
					gotK, gotV := make([]uint64, n), make([]int32, n)
					offs, moved := RadixPass(keys, gotK, vals, gotV, shift, degree)
					if offs != wantOffs {
						t.Fatalf("%s: digit offsets differ", label)
					}
					if moved == oneDigit {
						t.Fatalf("%s: moved = %v with every key on one digit = %v", label, moved, oneDigit)
					}
					if !moved {
						gotK, gotV = keys, vals
					}
					for i := range wantK {
						if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
							t.Fatalf("%s: item %d is (%x, %d), want (%x, %d)", label, i, gotK[i], gotV[i], wantK[i], wantV[i])
						}
					}
				}
			}
		}
	}
}

// BenchmarkRadixPass is the shared radix pass's micro-ruler: 1M keys with
// a value each, one pass over a digit they spread on, at degree 8.
func BenchmarkRadixPass(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(3))
	keys, vals := make([]uint64, n), make([]int32, n)
	for i := range keys {
		keys[i], vals[i] = rng.Uint64(), int32(i)
	}
	dstK, dstV := make([]uint64, n), make([]int32, n)
	b.SetBytes(n * 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RadixPass(keys, dstK, vals, dstV, 8, 8)
	}
}
