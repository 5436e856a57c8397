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
	n := int64(in.NumRows)
	var b int64
	if in.Wide() {
		perRow := int64((in.KeyBytes + 7) / 8 * 8)
		b += perRow * n
		b += 8 * n // murmur hashes
	} else if in.KeyBits > 0 && in.KeyBits <= 32 {
		b += 4 * n
	} else {
		b += 8 * n
	}
	for _, p := range in.Payloads {
		if p != nil {
			b += 4 * n // compressed payload codes
		}
	}
	return b
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
	slots := TableSlots(in.EstGroups, in.NumRows)
	table := TableBytes(slots, in.EntryWords())
	est := int(in.EstGroups)
	if est == 0 {
		est = in.NumRows
	}
	return InputDeviceBytes(in) + table*3 + ResultDeviceBytes(in, est)
}

// deviceTable is a linear-probed hash table in device memory.
type deviceTable struct {
	buf        *gpu.Buffer
	slots      int // power of two
	keyWords   int
	entryWords int
	locks      *gpu.LockSet // wide-key and kernel-3 paths
}

// newDeviceTable allocates and mask-initializes a table from the
// reservation, returning the table and the modeled initialization time
// (the parallel mask copy of Section 4.3.1).
func newDeviceTable(res *gpu.Reservation, in *Input, slots int, model *vtime.CostModel, withLocks bool) (*deviceTable, vtime.Duration, error) {
	entryWords := in.EntryWords()
	buf, err := res.AllocWords(slots * entryWords)
	if err != nil {
		return nil, 0, fmt.Errorf("groupby: table allocation: %w", err)
	}
	t := &deviceTable{
		buf:        buf,
		slots:      slots,
		keyWords:   in.KeyWords(),
		entryWords: entryWords,
	}
	if withLocks || in.Wide() {
		t.locks = gpu.NewLockSet(slots)
	}
	mask := Mask(in)
	words := buf.Words()
	dev := res.Device()
	kr := dev.RunKernelSpan("ht_init_mask", buf.Span(), nil, func(g *gpu.Grid) (vtime.Duration, error) {
		err := g.ParallelFor(slots, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				copy(words[s*entryWords:(s+1)*entryWords], mask)
			}
		})
		return model.DeviceFill(TableBytes(slots, entryWords)), err
	})
	if kr.Err != nil {
		return nil, 0, kr.Err
	}
	return t, kr.Modeled, nil
}

// keyAt returns the first key word of slot s (narrow path compares just
// this word; wide path compares all key words under the slot lock).
func (t *deviceTable) keyBase(s int) int { return s * t.entryWords }

// aggBase returns the index of aggregate a's accumulator in slot s.
func (t *deviceTable) aggBase(s, a int) int { return s*t.entryWords + t.keyWords + a }

// extract gathers the occupied slots into a Result sized once from groups,
// the occupied-slot count the kernel computed, returning the modeled
// device-side scan time (the result transfer is modeled by the caller,
// which knows pinnedness).
func (t *deviceTable) extract(in *Input, groups int, model *vtime.CostModel) (*Result, vtime.Duration) {
	res := &Result{Groups: groups, AggWords: make([][]uint64, len(in.Aggs))}
	for a := range res.AggWords {
		res.AggWords[a] = make([]uint64, groups)
	}
	var flat []byte
	if in.Wide() {
		res.WideKeys = make([][]byte, groups)
		flat = make([]byte, groups*in.KeyBytes)
	} else {
		res.Keys = make([]uint64, groups)
	}
	words := t.buf.Words()
	g := 0
	for s := 0; s < t.slots; s++ {
		base := t.keyBase(s)
		if words[base] == EmptyKey {
			continue
		}
		if in.Wide() {
			res.WideKeys[g] = flat[g*in.KeyBytes : (g+1)*in.KeyBytes]
			unpackKey(words[base:base+t.keyWords], res.WideKeys[g])
		} else {
			res.Keys[g] = words[base]
		}
		for a := range res.AggWords {
			res.AggWords[a][g] = words[t.aggBase(s, a)]
		}
		g++
	}
	scan := vtime.Duration(float64(TableBytes(t.slots, t.entryWords)) / model.GPU.MemBandwidthBps)
	return res, model.GPUKernelLaunch + scan
}

// packKey packs key bytes into little-endian words; the first byte of a
// valid key must not make the first word equal EmptyKey (dictionary codes
// and packed column values never do).
func packKey(key []byte, dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	for i, b := range key {
		dst[i/8] |= uint64(b) << (uint(i%8) * 8)
	}
}

// unpackKey reverses packKey into dst (whose length selects the bytes).
func unpackKey(words []uint64, dst []byte) {
	for i := range dst {
		dst[i] = byte(words[i/8] >> (uint(i%8) * 8))
	}
}
