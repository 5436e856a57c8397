package groupby

import (
	"errors"
	"fmt"

	"blugpu/internal/gpu"
	"blugpu/internal/vtime"
)

// ErrTableFull is returned when the device hash table overflowed even
// after the error path's retry — the KMV estimate was badly low and the
// reservation has no headroom left. The caller falls back to the CPU.
var ErrTableFull = errors.New("groupby: device hash table full")

// Mask returns one hash-table entry's initial words — the paper's Table 1
// mask: all-Fs for each key word, then each aggregate's initial value
// (SUM/COUNT -> 0, MAX -> type minimum, MIN -> type maximum), then zero
// padding to the 16-byte alignment boundary.
func Mask(in *Input) []uint64 {
	entry := make([]uint64, in.EntryWords())
	kw := in.KeyWords()
	for i := 0; i < kw; i++ {
		entry[i] = EmptyKey
	}
	for a, spec := range in.Aggs {
		entry[kw+a] = spec.InitWord()
	}
	// Remaining words (if any) are padding and stay zero.
	return entry
}

// TableSlots returns the global hash-table slot count for the given
// group estimate: the next power of two above 1.5x the estimate
// ("slightly larger than the estimated number of groups"), floored at a
// small minimum. When the estimate is unknown (0), the table must be
// sized by the row count instead — exactly the waste the KMV sketch
// exists to avoid.
func TableSlots(estGroups uint64, numRows int) int {
	target := float64(estGroups) * 1.5
	if estGroups == 0 {
		target = float64(numRows) * 1.5
	}
	slots := 16
	for float64(slots) < target {
		slots <<= 1
	}
	return slots
}

// TableBytes returns the device footprint of a table with the given
// geometry.
func TableBytes(slots, entryWords int) int64 {
	return int64(slots) * int64(entryWords) * 8
}

// InputDeviceBytes returns the bytes shipped host-to-device for the
// task. The vectors travel in BLU's compressed page format (the paper's
// "minimum conversion cost" design): narrow keys whose codes fit 32 bits
// and numeric payload codes ship as 4-byte values; the device expands
// them into 64-bit accumulators on arrival. Narrow keys need no hash
// vector — the device recomputes the mod hash from the key itself; wide
// keys ship their precomputed Murmur hashes.
func InputDeviceBytes(in *Input) int64 {
	payloads := 0
	for _, p := range in.Payloads {
		if p != nil {
			payloads++
		}
	}
	return inputBytes(int64(in.NumRows), in.KeyBits, in.KeyWords(), payloads)
}

// inputBytes is InputDeviceBytes for n rows of a key of keyBits bits in
// kw words and payloads compressed payload vectors.
func inputBytes(n int64, keyBits, kw, payloads int) int64 {
	var b int64
	switch {
	case keyBits > 63:
		b = 8*int64(kw)*n + 8*n // key words and murmur hashes
	case keyBits > 0 && keyBits <= 32:
		b = 4 * n
	default:
		b = 8 * n
	}
	return b + 4*n*int64(payloads) // compressed payload codes
}

// ResultDeviceBytes bounds the bytes shipped device-to-host: one entry
// per (estimated) group.
func ResultDeviceBytes(in *Input, groups int) int64 {
	return int64(groups) * int64(in.EntryWords()) * 8
}

// MemoryDemand computes the up-front device-memory demand for the task:
// the staged input, the global hash table, one table doubling of headroom
// for the error path, and the result buffer. The scheduler admits tasks
// on this number (Section 2.2: "we know the amount of memory that each
// kernel invocation call needs in advance").
func MemoryDemand(in *Input) int64 {
	return demand(InputDeviceBytes(in), in.NumRows, in.EstGroups, in.EntryWords())
}

// DemandBound bounds MemoryDemand before the evaluator chain has run, for
// rows input rows in groups groups, a key of keys columns packing into
// keyBits bits (over 63 selects the wide layout, bounded at 8 bytes a
// column and a leading pad byte), and aggs aggregates of which payloads
// read a column. It is what Figure 3's memory gate reads.
func DemandBound(rows, groups int64, keyBits, keys, aggs, payloads int) int64 {
	kw := 1
	if keyBits > 63 {
		kw = (8*keys + 1 + 7) / 8
	}
	return demand(inputBytes(rows, keyBits, kw, payloads), int(rows), uint64(groups), entryWords(kw, aggs))
}

// demand is the up-front device demand of a task whose input ships input
// bytes: its global hash table sized for groups groups (rows when 0)
// three times over, and one result entry per group.
func demand(input int64, rows int, groups uint64, entryWords int) int64 {
	table := TableBytes(TableSlots(groups, rows), entryWords)
	est := int64(groups)
	if est == 0 {
		est = int64(rows)
	}
	return input + table*3 + est*int64(entryWords)*8
}

// claimTable claims a slots-slot global hash table from the reservation
// and runs the mask-initialization kernel over it (Section 4.3.1's
// parallel mask copy), returning that kernel's modeled time. The table is
// accounted, not filled: the answer comes from aggregate.
func claimTable(res *gpu.Reservation, in *Input, slots int, model *vtime.CostModel) (vtime.Duration, error) {
	bytes := TableBytes(slots, in.EntryWords())
	if err := res.Claim(bytes); err != nil {
		return 0, fmt.Errorf("groupby: table allocation: %w", err)
	}
	kr := res.Device().RunKernelSpan("ht_init_mask", res.Span(), func() vtime.Duration {
		return model.DeviceFill(bytes)
	})
	return kr.Modeled, kr.Err
}
