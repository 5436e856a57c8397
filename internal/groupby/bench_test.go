package groupby

import (
	"fmt"
	"testing"

	"blugpu/internal/murmur"
	"blugpu/internal/vtime"
)

// benchInput is 1M rows in the given number of groups with the four
// standard aggregates, hashed the way the HASH evaluator hashes narrow
// keys.
func benchInput(groups int) *Input {
	in := buildInput(makeKeys(1_000_000, groups), stdAggs, uint64(groups))
	for i, k := range in.Keys {
		in.Hashes[i] = murmur.Sum64Uint64(k, 0x5bd1e995)
	}
	return in
}

// BenchmarkRunCPU is the make-bench ruler for the CPU path: the
// aggregation loop at the engine's default degree, few groups and many.
func BenchmarkRunCPU(b *testing.B) {
	model := vtime.Default()
	for _, groups := range []int{16, 500_000} {
		in := benchInput(groups)
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunCPU(in, 24, model); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunGPU is the same ruler for the device path with the
// moderator's kernel choice: the reservation, staging, table claims, the
// loop inside the first kernel, the cost statistics and the result copy.
func BenchmarkRunGPU(b *testing.B) {
	model := vtime.Default()
	dev := testDevice()
	for _, groups := range []int{16, 500_000} {
		in := benchInput(groups)
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := dev.Reserve(MemoryDemand(in))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := RunGPU(in, 24, res, model, GPUOptions{Pinned: true}); err != nil {
					b.Fatal(err)
				}
				res.Release()
			}
		})
	}
}
