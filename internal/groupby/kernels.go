package groupby

import (
	"blugpu/internal/gpu"
	"blugpu/internal/parallel"
	"blugpu/internal/vtime"
)

// The three kernels differ in how a K40 would aggregate (Sections 4.3.1–
// 4.3.3), and so in what they charge — never in what they answer: every
// kernel's answer is aggregate's, computed once per RunGPU by the first
// kernel body that runs. Each kernel body charges its cost formula over
// statistics of that answer that do not depend on insertion order.

// kernelNames are the kernel events' names, by Kernel.
var kernelNames = [...]string{
	K1Regular: "groupby_k1",
	K2Shared:  "groupby_k2_shared",
	K3RowLock: "groupby_k3_rowlock",
}

// runKernel launches kernel k against a slots-slot global table and
// returns its modeled time. It reports ErrTableFull when the answer's
// groups overflow the table — the kernel still launched and pays its
// launch — and before launching kernel 2 on an input its shared-memory
// tables cannot hold. answer supplies the aggregation, computed on its
// first call.
func runKernel(k Kernel, in *Input, slots int, res *gpu.Reservation, model *vtime.CostModel, answer func() *table) (vtime.Duration, error) {
	dev := res.Device()
	sharedSlots := TableSlots(in.EstGroups, in.NumRows)
	if k == K2Shared && (in.Wide() || TableBytes(sharedSlots, in.EntryWords()) > int64(dev.SharedMemBytes())) {
		// Shared-memory slots carry one key word, and the table must fit
		// the SMX's shared split; the moderator never routes these here.
		return 0, ErrTableFull
	}
	full := false
	kr := dev.RunKernelSpan(kernelNames[k], res.Span(), func() vtime.Duration {
		t := answer()
		groups := t.groups()
		if groups > slots {
			full = true
			return 0
		}
		rows := float64(in.NumRows)
		switch k {
		case K1Regular:
			// Global table, atomicCAS insert, one atomic per aggregate; wide
			// keys claim their slot under a lock.
			insert := vtime.Duration(probeSteps(in, t, slots) / model.GPUHashInsertRate)
			if in.Wide() {
				lf := model.LockContentionFactor(rows, float64(groups))
				insert += vtime.Duration(rows / model.GPULockRate * lf)
			}
			cf := model.AtomicContentionFactor(rows, float64(groups))
			return insert + vtime.Duration(rows*float64(len(in.Aggs))/model.GPUAtomicRate*cf)
		case K2Shared:
			// Per-SMX shared-memory tables, merged into the global one.
			merged := float64(sharedMerges(in, sharedSlots, dev.Spec().SMXCount))
			return vtime.Duration(rows/model.GPUSharedGroupRate) +
				vtime.Duration(merged/model.GPUMergeRate)
		default:
			// One row lock per input row, every aggregate applied plainly
			// under it.
			lf := model.LockContentionFactor(rows, float64(groups))
			return vtime.Duration(probeSteps(in, t, slots)/model.GPUHashInsertRate) +
				vtime.Duration(rows/model.GPULockRate*lf) +
				vtime.Duration(rows*float64(len(in.Aggs))/model.GPUPlainAggRate)
		}
	})
	if kr.Err != nil {
		return 0, kr.Err
	}
	if full {
		return 0, ErrTableFull
	}
	return kr.Modeled, nil
}

// probeSteps models the hash-insert probe steps of a kernel over a
// slots-slot table: one per row plus each row's walk from its key's home
// slot, taking the mean displacement over keys as every row's.
func probeSteps(in *Input, t *table, slots int) float64 {
	rows := float64(in.NumRows)
	if t.groups() == 0 {
		return rows
	}
	return rows + float64(displacement(t.hashes, slots))*rows/float64(t.groups())
}

// displacement is the total linear-probing displacement, Σ (slot − home),
// of keys with the given hashes in a slots-slot table homed at
// hash & (slots-1). The set of occupied slots, and so this sum, does not
// depend on the order the keys arrive in (DESIGN.md §3), so inserting
// them one by one gives what racing device threads would. There must be
// at most slots hashes.
func displacement(hashes []uint64, slots int) uint64 {
	taken := make([]bool, slots)
	mask := slots - 1
	var disp uint64
	for _, h := range hashes {
		s := int(h) & mask
		for taken[s] {
			s = (s + 1) & mask
			disp++
		}
		taken[s] = true
	}
	return disp
}

// SharedTableFits reports whether a per-SMX shared-memory table for the
// estimated group count fits the device's 48 KiB shared split.
func SharedTableFits(in *Input, dev *gpu.Device) bool {
	est := in.EstGroups
	if est == 0 {
		return false
	}
	slots := TableSlots(est, in.NumRows)
	return TableBytes(slots, in.EntryWords()) <= int64(dev.SharedMemBytes())
}

// sharedMerges is kernel 2's merged-entry count (Section 4.3.2): each of
// the smx SMXs aggregates its contiguous chunk of rows, in order, into a
// slots-slot shared-memory table, and every entry of that table merges
// into the global one when a new key finds it full and once more at the
// end of the chunk. Which entries merge depends only on the keys, so the
// pass tracks keys alone.
func sharedMerges(in *Input, slots, smx int) int {
	chunk := (in.NumRows + smx - 1) / smx
	merged := make([]int, smx)
	parallel.Go(smx, func(s int) {
		lo, hi := s*chunk, min((s+1)*chunk, in.NumRows)
		if lo >= hi {
			return
		}
		shared := make([]uint64, slots)
		mask, used := slots-1, 0
		flush := func() {
			merged[s] += used
			used = 0
			for i := range shared {
				shared[i] = EmptyKey
			}
		}
		// claim probes for key from its home slot; false means the table
		// is full of other keys.
		claim := func(key uint64, h int) bool {
			for step := 0; step < slots; step++ {
				switch shared[h] {
				case key:
					return true
				case EmptyKey:
					shared[h] = key
					used++
					return true
				}
				h = (h + 1) & mask
			}
			return false
		}
		flush()
		for i := lo; i < hi; i++ {
			home := int(in.Hashes[i]) & mask
			if !claim(in.Keys[i], home) {
				flush()
				claim(in.Keys[i], home)
			}
		}
		flush()
	})
	total := 0
	for _, m := range merged {
		total += m
	}
	return total
}
