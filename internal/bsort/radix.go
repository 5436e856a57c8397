package bsort

import (
	"slices"

	"blugpu/internal/gpu"
	"blugpu/internal/vtime"
)

// Entry packs one partial-key-buffer element: the 4-byte partial key in
// the high word (so unsigned uint64 order sorts by key) and the 4-byte
// payload — the tuple's address in the SDS — in the low word.
type Entry uint64

// MakeEntry builds an entry.
func MakeEntry(key uint32, payload uint32) Entry {
	return Entry(uint64(key)<<32 | uint64(payload))
}

// Key returns the 4-byte partial key.
func (e Entry) Key() uint32 { return uint32(e >> 32) }

// Payload returns the tuple address.
func (e Entry) Payload() uint32 { return uint32(e) }

// Range is a half-open interval of entry indices.
type Range struct{ Lo, Hi int }

// Len returns the range length.
func (r Range) Len() int { return r.Hi - r.Lo }

// gpuRadixSort sorts entries[r.Lo:r.Hi] by partial key on the device — the
// stand-in for Nvidia's Merrill/Grimshaw "Duane" radix sort kernel — and
// returns the duplicate ranges the GPU identifies (runs of more than one
// equal partial key), along with modeled kernel + transfer time.
//
// The device cost is the published kernel's throughput (~1G keys/s on a
// K40); the functional sort is an LSD counting sort over the 4 key bytes
// of a host copy of the job's entries, a RadixPass per byte at the host
// degree. The device's entry buffer and scratch buffer are claimed from
// the reservation, not filled.
func gpuRadixSort(entries []Entry, r Range, res *gpu.Reservation, model *vtime.CostModel, pinned bool, degree int) ([]Range, vtime.Duration, error) {
	n := r.Len()
	if n <= 1 {
		return nil, 0, nil
	}
	bytes := int64(n) * 8
	// Stage the job's slice of the partial key buffer onto the device, then
	// claim the scratch buffer for the out-of-place counting-sort passes.
	if err := res.Claim(bytes); err != nil {
		return nil, 0, err
	}
	tin, err := res.CopyToDevice(bytes, pinned)
	if err != nil {
		return nil, 0, err
	}
	if err := res.Claim(bytes); err != nil {
		return nil, 0, err
	}

	sorted := slices.Clone(entries[r.Lo:r.Hi])
	kr := res.Device().RunKernelSpan("radix_sort", res.Span(), func() vtime.Duration {
		scratch := make([]Entry, n)
		for shift := uint(32); shift < 64; shift += 8 {
			if _, moved := RadixPass(sorted, scratch, nil, nil, shift, degree); moved {
				sorted, scratch = scratch, sorted
			}
		}
		return vtime.Duration(float64(n) / model.GPURadixSortRate)
	})
	if kr.Err != nil {
		return nil, 0, kr.Err
	}

	// Copy the sorted buffer back; the host entries change only once
	// every transfer has succeeded.
	tout, err := res.CopyFromDevice(bytes, pinned)
	if err != nil {
		return nil, 0, err
	}
	copy(entries[r.Lo:r.Hi], sorted)

	// The GPU identifies duplicate ranges for requeueing.
	var dups []Range
	i := 0
	for i < n {
		j := i + 1
		for j < n && sorted[j].Key() == sorted[i].Key() {
			j++
		}
		if j-i > 1 {
			dups = append(dups, Range{Lo: r.Lo + i, Hi: r.Lo + j})
		}
		i = j
	}
	// The input copy is double-buffered against the radix passes (CUDA
	// streams): the job pays max(transfer, kernel) plus a pipeline-fill
	// chunk rather than the serial sum.
	modeled := gpu.PipelineTime(tin, kr.Modeled) + tout
	return dups, modeled, nil
}
