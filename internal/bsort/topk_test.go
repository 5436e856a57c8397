package bsort

import (
	"math/rand"
	"slices"
	"testing"

	"blugpu/internal/vtime"
)

// TestTopKMatchesSort holds TopK to the first k of Sort's permutation over
// keys with many duplicates, across the worker split (n from below one
// grain to several) and k from 1 to past n.
func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 7, topkGrain - 1, 3*topkGrain + 17, 20000} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(int64(n/4+1)) - int64(n/8)
		}
		src := flatIntSource(vals)
		perm, _, err := Sort(src, Config{Model: vtime.Default(), Degree: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 100, n - 1, n, n + 5} {
			if k < 1 {
				continue
			}
			want := perm[:min(k, n)]
			for _, degree := range []int{1, 2, 8, 24} {
				if got := TopK(src, k, degree); !slices.Equal(got, want) {
					t.Fatalf("n %d k %d degree %d: top-k differs from the sort's first k", n, k, degree)
				}
			}
		}
	}
	if got := TopK(flatIntSource([]int64{3, 1}), 0, 1); got != nil {
		t.Errorf("k 0: %v, want nil", got)
	}
}

// BenchmarkTopK is the selection's micro-ruler: 1M rows of two-segment
// keys at degree 8, the first 100 by TopK against the full Sort a
// LIMIT 100 would otherwise cut.
func BenchmarkTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = rng.Int63() - rng.Int63()
	}
	src := flatIntSource(vals)
	b.Run("topk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TopK(src, 100, 8)
		}
	})
	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		cfg := Config{Model: vtime.Default(), Degree: 8}
		for i := 0; i < b.N; i++ {
			if _, _, err := Sort(src, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
