package groupby

import (
	"math"
	"sync/atomic"

	"blugpu/internal/columnar"
	"blugpu/internal/gpu"
	"blugpu/internal/vtime"
)

// kernelStats accumulates measured work counts from a functional kernel
// run; they feed the cost formulas.
type kernelStats struct {
	// disp sums, over the distinct keys, how many slots past its home
	// each key was claimed. Recorded once per key by the claiming thread:
	// for linear probing the final set of occupied slots — and so this sum
	// — does not depend on which thread won which claim, unlike a per-row
	// probe count, which does. Each grid chunk sums its claims locally and
	// adds once: every worker loads full, on the same cache line, per row.
	disp       atomic.Uint64
	full       atomic.Bool   // table overflow observed
	flushes    atomic.Uint64 // kernel-2 shared-memory flushes
	mergeEntry atomic.Uint64 // kernel-2 entries merged into device memory
}

// insertNarrow probes the table for a <=64-bit key using mod hashing and
// atomicCAS claiming (Section 4.3.1), returning the slot or -1 on a full
// table. A claim adds its displacement to the caller's chunk-local disp.
func insertNarrow(t *deviceTable, key, hash uint64, st *kernelStats, disp *uint64) int {
	mask := t.slots - 1
	s := int(hash) & mask
	for step := 0; step < t.slots; step++ {
		base := t.keyBase(s)
		cur := t.buf.AtomicLoad(base)
		if cur == EmptyKey {
			if t.buf.AtomicCAS(base, EmptyKey, key) {
				*disp += uint64(step)
				return s
			}
			cur = t.buf.AtomicLoad(base)
		}
		if cur == key {
			return s
		}
		s = (s + 1) & mask
	}
	st.full.Store(true)
	return -1
}

// insertWide probes the table for a >64-bit key under per-slot locks with
// Murmur hashing (the hash arrives precomputed from the HASH evaluator).
// It returns the slot or -1 on a full table. The slot remains locked on
// success so the caller can aggregate under it; the caller must unlock.
func insertWide(t *deviceTable, key []byte, hash uint64, st *kernelStats, disp *uint64, keyBuf []uint64) int {
	packKey(key, keyBuf)
	mask := t.slots - 1
	s := int(hash) & mask
	for step := 0; step < t.slots; step++ {
		base := t.keyBase(s)
		t.locks.Lock(s)
		cur := t.buf.Words()[base]
		if cur == EmptyKey {
			copy(t.buf.Words()[base:base+t.keyWords], keyBuf)
			*disp += uint64(step)
			return s
		}
		if wordsEqual(t.buf.Words()[base:base+t.keyWords], keyBuf) {
			return s
		}
		t.locks.Unlock(s)
		s = (s + 1) & mask
	}
	st.full.Store(true)
	return -1
}

func wordsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// atomicAgg applies one aggregate atomically to the table (Section 4.4
// strategy 1: CUDA atomic calls).
func atomicAgg(t *deviceTable, slot, a int, spec AggSpec, payload uint64) {
	idx := t.aggBase(slot, a)
	switch spec.Kind {
	case Count:
		t.buf.AtomicAdd(idx, 1)
	case Sum:
		if spec.Type == columnar.Float64 {
			t.buf.AtomicAddFloat64(idx, float64FromBits(payload))
		} else {
			t.buf.AtomicAdd(idx, payload)
		}
	case Min:
		if spec.Type == columnar.Float64 {
			t.buf.AtomicMinFloat64(idx, float64FromBits(payload))
		} else {
			t.buf.AtomicMinInt64(idx, int64(payload))
		}
	case Max:
		if spec.Type == columnar.Float64 {
			t.buf.AtomicMaxFloat64(idx, float64FromBits(payload))
		} else {
			t.buf.AtomicMaxInt64(idx, int64(payload))
		}
	}
}

// plainAgg applies one aggregate non-atomically; only valid under a held
// row lock (kernel 3 and the wide-key path).
func plainAgg(t *deviceTable, slot, a int, spec AggSpec, payload uint64) {
	idx := t.aggBase(slot, a)
	applyAgg(t.buf.Words()[idx:idx+1], 0, spec, payload)
}

// --- Kernel 1: regular queries (Section 4.3.1) ---

// runKernel1 is the regular kernel: global table, atomicCAS insert,
// per-aggregate atomic updates.
func runKernel1(in *Input, t *deviceTable, dev *gpu.Device, model *vtime.CostModel, cancel *gpu.Cancel) (vtime.Duration, int, error) {
	st := &kernelStats{}
	groups := 0
	kr := dev.RunKernelSpan("groupby_k1", t.buf.Span(), cancel, func(g *gpu.Grid) (vtime.Duration, error) {
		var err error
		if in.Wide() {
			keyWords := in.KeyWords()
			err = g.ParallelFor(in.NumRows, func(lo, hi int) {
				keyBuf := make([]uint64, keyWords)
				var disp uint64
				defer func() { st.disp.Add(disp) }()
				for i := lo; i < hi; i++ {
					if st.full.Load() {
						return
					}
					slot := insertWide(t, in.WideKeys[i], in.Hashes[i], st, &disp, keyBuf)
					if slot < 0 {
						return
					}
					t.locks.Unlock(slot)
					for a, spec := range in.Aggs {
						atomicAgg(t, slot, a, spec, payloadAt(in, a, i))
					}
				}
			})
		} else {
			err = g.ParallelFor(in.NumRows, func(lo, hi int) {
				var disp uint64
				defer func() { st.disp.Add(disp) }()
				for i := lo; i < hi; i++ {
					if st.full.Load() {
						return
					}
					slot := insertNarrow(t, in.Keys[i], in.Hashes[i], st, &disp)
					if slot < 0 {
						return
					}
					for a, spec := range in.Aggs {
						atomicAgg(t, slot, a, spec, payloadAt(in, a, i))
					}
				}
			})
		}
		if err != nil || st.full.Load() {
			return 0, err
		}
		groups = countGroups(t)
		return kernel1Cost(in, st, model, groups), nil
	})
	if kr.Err != nil {
		return 0, 0, kr.Err
	}
	if st.full.Load() {
		return 0, 0, ErrTableFull
	}
	return kr.Modeled, groups, nil
}

// probeSteps models the hash-insert probe steps of a kernel run: one per
// row plus each row's walk from its key's home slot, taking the mean
// displacement over keys as every row's. A pure function of the input,
// so the modeled cost is too.
func probeSteps(in *Input, st *kernelStats, groups int) float64 {
	rows := float64(in.NumRows)
	if groups == 0 {
		return rows
	}
	return rows + float64(st.disp.Load())*rows/float64(groups)
}

func kernel1Cost(in *Input, st *kernelStats, model *vtime.CostModel, groups int) vtime.Duration {
	rows := float64(in.NumRows)
	insert := vtime.Duration(probeSteps(in, st, groups) / model.GPUHashInsertRate)
	var aggT vtime.Duration
	cf := model.AtomicContentionFactor(rows, float64(groups))
	aggWork := rows * float64(len(in.Aggs))
	if in.Wide() {
		// Lock-based insert claims dominate; aggregates are still atomic.
		lf := model.LockContentionFactor(rows, float64(groups))
		insert += vtime.Duration(rows / model.GPULockRate * lf)
	}
	aggT = vtime.Duration(aggWork / model.GPUAtomicRate * cf)
	return insert + aggT
}

// --- Kernel 2: small number of groups (Section 4.3.2) ---

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

// runKernel2 performs a two-phase group-by: per-SMX partial tables in
// shared memory, merged into the global device-memory table.
func runKernel2(in *Input, t *deviceTable, dev *gpu.Device, model *vtime.CostModel, cancel *gpu.Cancel) (vtime.Duration, int, error) {
	if in.Wide() {
		// Shared-memory slots carry one key word; wide keys go to
		// kernel 1 or 3. The moderator never routes wide keys here.
		return 0, 0, ErrTableFull
	}
	st := &kernelStats{}
	smx := dev.Spec().SMXCount
	slots2 := TableSlots(in.EstGroups, in.NumRows)
	if TableBytes(slots2, in.EntryWords()) > int64(dev.SharedMemBytes()) {
		return 0, 0, ErrTableFull
	}
	entryWords := in.EntryWords()
	keyWords := in.KeyWords()
	mask := Mask(in)

	groups := 0
	kr := dev.RunKernelSpan("groupby_k2_shared", t.buf.Span(), cancel, func(g *gpu.Grid) (vtime.Duration, error) {
		chunk := (in.NumRows + smx - 1) / smx
		err := g.ForEachSMX(func(s int) {
			lo := s * chunk
			hi := lo + chunk
			if hi > in.NumRows {
				hi = in.NumRows
			}
			if lo >= hi {
				return
			}
			var disp uint64
			defer func() { st.disp.Add(disp) }()
			// The SMX's shared-memory table.
			local := make([]uint64, slots2*entryWords)
			reset := func() {
				for i := 0; i < slots2; i++ {
					copy(local[i*entryWords:(i+1)*entryWords], mask)
				}
			}
			reset()
			flush := func() {
				for i := 0; i < slots2; i++ {
					base := i * entryWords
					if local[base] == EmptyKey {
						continue
					}
					slot := insertNarrow(t, local[base], hashMix(local[base]), st, &disp)
					if slot < 0 {
						return
					}
					for a, spec := range in.Aggs {
						mergeAtomic(t, slot, a, spec, local[base+keyWords+a])
					}
					st.mergeEntry.Add(1)
				}
			}
			for i := lo; i < hi; i++ {
				if st.full.Load() {
					return
				}
				key := in.Keys[i]
				h := int(in.Hashes[i]) & (slots2 - 1)
				inserted := false
				for step := 0; step < slots2; step++ {
					base := h * entryWords
					if local[base] == EmptyKey {
						local[base] = key
						for a, spec := range in.Aggs {
							local[base+keyWords+a] = spec.InitWord()
						}
					}
					if local[base] == key {
						for a, spec := range in.Aggs {
							acc := local[base+keyWords+a : base+keyWords+a+1]
							applyAgg(acc, 0, spec, payloadAt(in, a, i))
						}
						inserted = true
						break
					}
					h = (h + 1) & (slots2 - 1)
				}
				if !inserted {
					// Shared table full: merge the partial result into
					// device memory and start fresh (Section 4.3.2).
					flush()
					reset()
					st.flushes.Add(1)
					i-- // retry the row against the fresh table
				}
			}
			flush()
		})
		if err != nil || st.full.Load() {
			return 0, err
		}
		groups = countGroups(t)
		rows := float64(in.NumRows)
		merged := float64(st.mergeEntry.Load())
		return vtime.Duration(rows/model.GPUSharedGroupRate) +
			vtime.Duration(merged/model.GPUMergeRate), nil
	})
	if kr.Err != nil {
		return 0, 0, kr.Err
	}
	if st.full.Load() {
		return 0, 0, ErrTableFull
	}
	return kr.Modeled, groups, nil
}

// mergeAtomic folds a partial accumulator into the global table with
// atomics (the kernel-2 merge step).
func mergeAtomic(t *deviceTable, slot, a int, spec AggSpec, partial uint64) {
	idx := t.aggBase(slot, a)
	switch spec.Kind {
	case Count, Sum:
		if spec.Type == columnar.Float64 && spec.Kind == Sum {
			t.buf.AtomicAddFloat64(idx, float64FromBits(partial))
		} else {
			t.buf.AtomicAdd(idx, partial)
		}
	case Min:
		if spec.Type == columnar.Float64 {
			t.buf.AtomicMinFloat64(idx, float64FromBits(partial))
		} else {
			t.buf.AtomicMinInt64(idx, int64(partial))
		}
	case Max:
		if spec.Type == columnar.Float64 {
			t.buf.AtomicMaxFloat64(idx, float64FromBits(partial))
		} else {
			t.buf.AtomicMaxInt64(idx, int64(partial))
		}
	}
}

// --- Kernel 3: many aggregation functions (Section 4.3.3) ---

// runKernel3 locks the whole hash-table row once per input row and
// applies every aggregation function under the single lock — cheaper than
// per-aggregate atomics when there are many aggregates or contention is
// low.
func runKernel3(in *Input, t *deviceTable, dev *gpu.Device, model *vtime.CostModel, cancel *gpu.Cancel) (vtime.Duration, int, error) {
	st := &kernelStats{}
	groups := 0
	kr := dev.RunKernelSpan("groupby_k3_rowlock", t.buf.Span(), cancel, func(g *gpu.Grid) (vtime.Duration, error) {
		var err error
		if in.Wide() {
			keyWords := in.KeyWords()
			err = g.ParallelFor(in.NumRows, func(lo, hi int) {
				keyBuf := make([]uint64, keyWords)
				var disp uint64
				defer func() { st.disp.Add(disp) }()
				for i := lo; i < hi; i++ {
					if st.full.Load() {
						return
					}
					slot := insertWide(t, in.WideKeys[i], in.Hashes[i], st, &disp, keyBuf)
					if slot < 0 {
						return
					}
					// Slot lock already held; apply every aggregate
					// plainly, then release once.
					for a, spec := range in.Aggs {
						plainAgg(t, slot, a, spec, payloadAt(in, a, i))
					}
					t.locks.Unlock(slot)
				}
			})
		} else {
			err = g.ParallelFor(in.NumRows, func(lo, hi int) {
				var disp uint64
				defer func() { st.disp.Add(disp) }()
				for i := lo; i < hi; i++ {
					if st.full.Load() {
						return
					}
					slot := insertNarrow(t, in.Keys[i], in.Hashes[i], st, &disp)
					if slot < 0 {
						return
					}
					t.locks.Lock(slot)
					for a, spec := range in.Aggs {
						plainAgg(t, slot, a, spec, payloadAt(in, a, i))
					}
					t.locks.Unlock(slot)
				}
			})
		}
		if err != nil || st.full.Load() {
			return 0, err
		}
		groups = countGroups(t)
		rows := float64(in.NumRows)
		lf := model.LockContentionFactor(rows, float64(groups))
		return vtime.Duration(probeSteps(in, st, groups)/model.GPUHashInsertRate) +
			vtime.Duration(rows/model.GPULockRate*lf) +
			vtime.Duration(rows*float64(len(in.Aggs))/model.GPUPlainAggRate), nil
	})
	if kr.Err != nil {
		return 0, 0, kr.Err
	}
	if st.full.Load() {
		return 0, 0, ErrTableFull
	}
	return kr.Modeled, groups, nil
}

// --- shared helpers ---

func payloadAt(in *Input, a, i int) uint64 {
	if in.Payloads[a] == nil {
		return 0
	}
	return in.Payloads[a][i]
}

func countGroups(t *deviceTable) int {
	words := t.buf.Words()
	n := 0
	for s := 0; s < t.slots; s++ {
		if words[t.keyBase(s)] != EmptyKey {
			n++
		}
	}
	return n
}

// hashMix rehashes a key for the kernel-2 merge (the original row hash is
// unavailable for flushed entries).
func hashMix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func float64FromBits(b uint64) float64 { return math.Float64frombits(b) }
