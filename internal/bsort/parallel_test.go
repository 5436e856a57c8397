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
		Scheduler:    twoGPUSched(),
		Degree:       1,
		GPUThreshold: 1 << 12,
	}
	seqPerm, seqSt := sortDegree(t, vals, base)
	if seqSt.GPUJobs == 0 {
		t.Fatal("test did not exercise the GPU path")
	}
	for _, d := range testDegrees[1:] {
		cfg := base
		cfg.Scheduler = twoGPUSched()
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
