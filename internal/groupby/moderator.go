package groupby

import (
	"errors"
	"fmt"

	"blugpu/internal/gpu"
	"blugpu/internal/vtime"
)

// Kernel identifies one of the three GPU group-by kernels.
type Kernel int

// Kernel choices.
const (
	// KAuto lets the moderator pick.
	KAuto Kernel = iota
	// K1Regular is the global-table atomic kernel (Section 4.3.1).
	K1Regular
	// K2Shared is the shared-memory two-phase kernel (Section 4.3.2).
	K2Shared
	// K3RowLock is the whole-row-lock kernel (Section 4.3.3).
	K3RowLock
)

func (k Kernel) String() string {
	switch k {
	case K1Regular:
		return "k1-regular"
	case K2Shared:
		return "k2-shared"
	case K3RowLock:
		return "k3-rowlock"
	default:
		return "auto"
	}
}

// ManyAggsThreshold is the aggregate count above which per-aggregate
// atomics lose to the row lock ("more than 5", Section 4.3.3).
const ManyAggsThreshold = 5

// LowContentionRatio is the rows/groups ratio below which contention is
// low enough that kernel 3's single lock beats kernel 1's atomics.
const LowContentionRatio = 4

// GPUOptions configures a device execution.
type GPUOptions struct {
	// Kernel forces a specific kernel; KAuto consults the moderator.
	Kernel Kernel
	// Race runs a second eligible kernel concurrently when the
	// reservation has room for its table, keeping the faster result
	// (Section 4.2).
	Race bool
	// Pinned reports whether the input was staged through the registered
	// host segment (fast transfers).
	Pinned bool
	// Fused marks a fused-chain execution: the input vectors are already
	// resident on the device (uploaded or reused by the fused pipeline),
	// so no input staging or H2D transfer happens here. The chain-exit
	// result transfer still runs.
	Fused bool
}

// ChooseKernel is the GPU moderator's primary selection, from optimizer
// metadata: estimated groups, exact row count, aggregate count.
func ChooseKernel(in *Input, dev *gpu.Device) Kernel {
	if !in.Wide() && SharedTableFits(in, dev) {
		return K2Shared
	}
	est := float64(in.EstGroups)
	if est == 0 {
		est = float64(in.NumRows)
	}
	ratio := float64(in.NumRows) / est
	if len(in.Aggs) > ManyAggsThreshold || ratio < LowContentionRatio {
		return K3RowLock
	}
	return K1Regular
}

// secondChoice returns the kernel the moderator races against primary, or
// KAuto when none is distinct and eligible.
func secondChoice(primary Kernel, in *Input, dev *gpu.Device) Kernel {
	switch primary {
	case K2Shared:
		return K1Regular
	case K1Regular:
		return K3RowLock
	case K3RowLock:
		if !in.Wide() && SharedTableFits(in, dev) {
			return K2Shared
		}
		return K1Regular
	}
	return KAuto
}

// RunGPU executes the group-by on the device owning res, which must carry
// at least MemoryDemand(in) bytes. It models the pinned/unpinned input
// transfer, initializes the global hash table from the mask, runs the
// selected kernel (racing a second one if requested and affordable),
// handles the table-full error path by doubling the table once, extracts
// the result and models the return transfer.
func RunGPU(in *Input, res *gpu.Reservation, model *vtime.CostModel, opts GPUOptions) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.NumRows == 0 {
		return &Result{AggWords: newAggColumns(len(in.Aggs), 0),
			Stats: ExecStats{Path: PathGPU, Kernel: "empty"}}, nil
	}
	dev := res.Device()
	primary := opts.Kernel
	if primary == KAuto {
		primary = ChooseKernel(in, dev)
	}

	var transferIn vtime.Duration
	if !opts.Fused {
		var err error
		transferIn, err = stageInput(in, res, opts.Pinned)
		if err != nil {
			return nil, err
		}
	}

	type attempt struct {
		kernel  Kernel
		result  *Result
		modeled vtime.Duration
		retried int
		table   *deviceTable
	}
	runOne := func(k Kernel) (*attempt, error) {
		slots := TableSlots(in.EstGroups, in.NumRows)
		retried := 0
		for {
			t, initT, err := newDeviceTable(res, in, slots, model, k == K3RowLock)
			if err != nil {
				return nil, err
			}
			var kt vtime.Duration
			var groups int
			switch k {
			case K1Regular:
				kt, groups, err = runKernel1(in, t, dev, model, nil)
			case K2Shared:
				kt, groups, err = runKernel2(in, t, dev, model, nil)
			case K3RowLock:
				kt, groups, err = runKernel3(in, t, dev, model, nil)
			default:
				return nil, fmt.Errorf("groupby: invalid kernel %v", k)
			}
			if errors.Is(err, ErrTableFull) {
				// Error path (Section 4.2): the KMV estimate was low.
				// Double the table and retry within the reservation's
				// headroom; the wasted attempt still costs time.
				if retried >= 1 {
					return nil, ErrTableFull
				}
				retried++
				slots *= 2
				continue
			}
			if err != nil {
				return nil, err
			}
			result, extractT := t.extract(in, groups, model)
			result.Stats.KernelTime = initT + kt + extractT
			return &attempt{kernel: k, result: result, modeled: initT + kt + extractT, retried: retried, table: t}, nil
		}
	}

	winner, err := runOne(primary)
	if err != nil {
		return nil, err
	}
	raced := []string{primary.String()}

	if opts.Race {
		second := secondChoice(primary, in, dev)
		if second != KAuto && second != primary {
			// Only race when the reservation still has room for the
			// second kernel's table ("if we have enough compute resources
			// and memory on the GPU").
			slots := TableSlots(in.EstGroups, in.NumRows)
			need := TableBytes(slots, in.EntryWords())
			if res.Size()-res.Used() >= need {
				if alt, err := runOne(second); err == nil {
					raced = append(raced, second.String())
					if alt.modeled < winner.modeled {
						winner = alt
					}
				}
			}
		}
	}

	result := winner.result
	transferOut, err := copyResultOut(in, result, winner.table, dev, opts.Pinned)
	if err != nil {
		return nil, err
	}
	result.Stats.Path = PathGPU
	result.Stats.Kernel = winner.kernel.String()
	result.Stats.Retried = winner.retried
	result.Stats.Raced = raced
	result.Stats.TransferIn = transferIn
	result.Stats.TransferOut = transferOut
	// The input transfer is double-buffered against kernel execution
	// (CUDA streams): chunks of the staged vectors copy while earlier
	// chunks are being grouped.
	result.Stats.Modeled = gpu.PipelineTime(transferIn, result.Stats.KernelTime) + transferOut
	return result, nil
}

// copyResultOut performs the chain-exit device-to-host copy of the dense
// result block (groups x entry words). Earlier versions only modeled this
// transfer, which is why historical snapshots report zero
// transfer_d2h_bytes even though every result leaves the device; routing
// the copy through Device.CopyFromDevice makes the D2H counters real and
// gives the injector's D2H site an operation that actually fires. The
// result rows live in the winning kernel's hash table, so the copy
// sources from that table's buffer, bounded to the dense result size.
func copyResultOut(in *Input, result *Result, table *deviceTable, dev *gpu.Device, pinned bool) (vtime.Duration, error) {
	words := int(ResultDeviceBytes(in, result.Groups) / 8)
	if words == 0 || table == nil {
		return 0, nil
	}
	if tw := table.buf.Len(); words > tw {
		words = tw
	}
	dst := make([]uint64, words)
	return dev.CopyFromDevice(dst, table.buf, pinned)
}

// stageInput allocates device buffers for the task's vectors out of the
// reservation and performs the host-to-device copies, in the compressed
// widths InputDeviceBytes models. The kernels read the (identical) host
// slices directly — a simulation shortcut — but the device-memory
// accounting and transfer timing follow the real compressed data.
func stageInput(in *Input, res *gpu.Reservation, pinned bool) (vtime.Duration, error) {
	dev := res.Device()
	var total vtime.Duration
	copyVec := func(vec []uint64) error {
		if len(vec) == 0 {
			return nil
		}
		buf, err := res.AllocWords(len(vec))
		if err != nil {
			return err
		}
		t, err := dev.CopyToDevice(buf, vec, pinned)
		total += t
		return err
	}
	// copyCompressed ships vec as 4-byte codes: two per 64-bit word.
	copyCompressed := func(vec []uint64) error {
		if len(vec) == 0 {
			return nil
		}
		packed := make([]uint64, (len(vec)+1)/2)
		for i, v := range vec {
			packed[i/2] |= (v & 0xFFFFFFFF) << (uint(i%2) * 32)
		}
		return copyVec(packed)
	}
	if in.Wide() {
		kw := in.KeyWords()
		packed := make([]uint64, in.NumRows*kw)
		for i, k := range in.WideKeys {
			packKey(k, packed[i*kw:(i+1)*kw])
		}
		if err := copyVec(packed); err != nil {
			return total, err
		}
		// Wide keys ship their precomputed Murmur hashes; narrow keys do
		// not — the device derives the mod hash from the key itself.
		if err := copyVec(in.Hashes); err != nil {
			return total, err
		}
	} else if in.KeyBits > 0 && in.KeyBits <= 32 {
		if err := copyCompressed(in.Keys); err != nil {
			return total, err
		}
	} else {
		if err := copyVec(in.Keys); err != nil {
			return total, err
		}
	}
	for _, p := range in.Payloads {
		if err := copyCompressed(p); err != nil {
			return total, err
		}
	}
	return total, nil
}
