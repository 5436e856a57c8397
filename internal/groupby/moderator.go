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
	// Race also charges a second eligible kernel when the reservation has
	// room for its table — its table claim, mask initialization and launch
	// — and keeps the lower modeled time (Section 4.2). Both kernels
	// report the one answer; a fault in either fails the call.
	Race bool
	// Pinned reports whether the input was staged through the registered
	// host segment (fast transfers).
	Pinned bool
	// Fused marks a fused-chain execution: the input vectors are already
	// resident on the device (uploaded or reused by the fused pipeline),
	// so no input staging or H2D transfer happens here. The chain-exit
	// result transfer still runs.
	Fused bool
	// TopK, when > 0, is the k of an ORDER BY ... LIMIT k over the
	// group-by's output: only its first k groups can reach the result.
	// When there are more groups than k and the D2H time that shipping k
	// of them instead of all would save exceeds a topk_select kernel over
	// the groups, the kernel runs and only k groups leave the device
	// (Stats.Kept). The caller picks which k; the device charges the
	// selection.
	TopK int
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
// transfer, claims and mask-initializes the global hash table, runs the
// selected kernel (racing a second one if requested and affordable),
// handles the table-full error path by doubling the table once, and
// models the return transfer. The first kernel body to run computes the
// answer with the aggregation loop RunCPU runs at the same degree, so the
// two paths' answers are equal to the bit.
func RunGPU(in *Input, degree int, res *gpu.Reservation, model *vtime.CostModel, opts GPUOptions) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if opts.Kernel < KAuto || opts.Kernel > K3RowLock {
		return nil, fmt.Errorf("groupby: invalid kernel %v", opts.Kernel)
	}
	if in.NumRows == 0 {
		out := newTable(in, 0).result()
		out.Stats = ExecStats{Path: PathGPU, Kernel: "empty"}
		return out, nil
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

	var groups *table
	answer := func() *table {
		if groups == nil {
			groups, _ = aggregate(in, degree)
		}
		return groups
	}
	type attempt struct {
		kernel  Kernel
		modeled vtime.Duration
		retried int
	}
	runOne := func(k Kernel) (attempt, error) {
		slots := TableSlots(in.EstGroups, in.NumRows)
		for retried := 0; ; retried++ {
			initT, err := claimTable(res, in, slots, model)
			if err != nil {
				return attempt{}, err
			}
			kt, err := runKernel(k, in, slots, res, model, answer)
			if errors.Is(err, ErrTableFull) && retried == 0 {
				// Error path (Section 4.2): the KMV estimate was low.
				// Double the table and retry within the reservation's
				// headroom; the wasted attempt still costs time.
				slots *= 2
				continue
			}
			if err != nil {
				return attempt{}, err
			}
			// The device-side scan of the table for the occupied entries.
			extract := model.GPUKernelLaunch +
				vtime.Duration(float64(TableBytes(slots, in.EntryWords()))/model.GPU.MemBandwidthBps)
			return attempt{kernel: k, modeled: initT + kt + extract, retried: retried}, nil
		}
	}

	winner, err := runOne(primary)
	if err != nil {
		return nil, err
	}
	raced := []string{primary.String()}

	if opts.Race {
		second := secondChoice(primary, in, dev)
		// Only race when the reservation still has room for the second
		// kernel's table ("if we have enough compute resources and memory
		// on the GPU").
		need := TableBytes(TableSlots(in.EstGroups, in.NumRows), in.EntryWords())
		if second != KAuto && second != primary && res.Size()-res.Used() >= need {
			alt, err := runOne(second)
			if err != nil {
				return nil, err
			}
			raced = append(raced, second.String())
			if alt.modeled < winner.modeled {
				winner = alt
			}
		}
	}

	result := groups.result()
	// An ORDER BY ... LIMIT k above selects its k groups on the device
	// when the D2H time that saves pays for the selection kernel.
	shipped, kept := result.Groups, 0
	var selectT vtime.Duration
	if k := opts.TopK; k > 0 && result.Groups > k {
		sel := model.GPUTime(float64(result.Groups), model.GPURadixSortRate)
		saved := model.Transfer(ResultDeviceBytes(in, result.Groups), opts.Pinned) - model.Transfer(ResultDeviceBytes(in, k), opts.Pinned)
		if saved > sel {
			kr := dev.RunKernelSpan("topk_select", res.Span(), func() vtime.Duration {
				return vtime.Duration(float64(result.Groups) / model.GPURadixSortRate)
			})
			if kr.Err != nil {
				return nil, kr.Err
			}
			selectT, shipped, kept = kr.Modeled, k, k
		}
	}
	// The chain-exit copy of the dense result block (groups x entry
	// words) out of the winning table.
	var transferOut vtime.Duration
	if out := ResultDeviceBytes(in, shipped); out > 0 {
		if transferOut, err = res.CopyFromDevice(out, opts.Pinned); err != nil {
			return nil, err
		}
	}
	result.Stats = ExecStats{
		Path:        PathGPU,
		Kernel:      winner.kernel.String(),
		Retried:     winner.retried,
		Raced:       raced,
		Kept:        kept,
		TransferIn:  transferIn,
		KernelTime:  winner.modeled + selectT,
		TransferOut: transferOut,
		// The input transfer is double-buffered against kernel execution
		// (CUDA streams): chunks of the staged vectors copy while earlier
		// chunks are being grouped.
		Modeled: gpu.PipelineTime(transferIn, winner.modeled) + selectT + transferOut,
	}
	return result, nil
}

// stageInput claims device memory for the task's vectors and transfers
// them, one claim and one H2D copy per vector, in the compressed widths
// InputDeviceBytes models. The aggregation reads the host slices, so
// nothing is packed or copied: the claims and transfers are the
// accounting.
func stageInput(in *Input, res *gpu.Reservation, pinned bool) (vtime.Duration, error) {
	var total vtime.Duration
	ship := func(words int) error {
		if words == 0 {
			return nil
		}
		bytes := int64(words) * 8
		if err := res.Claim(bytes); err != nil {
			return err
		}
		t, err := res.CopyToDevice(bytes, pinned)
		total += t
		return err
	}
	// A vector of 4-byte codes packs two per 64-bit word.
	n, codes := in.NumRows, (in.NumRows+1)/2
	var err error
	switch {
	case in.Wide():
		// Wide keys ship their precomputed Murmur hashes; narrow keys do
		// not — the device derives the mod hash from the key itself.
		if err = ship(n * in.KeyWords()); err == nil {
			err = ship(n)
		}
	case in.KeyBits > 0 && in.KeyBits <= 32:
		err = ship(codes)
	default:
		err = ship(n)
	}
	for _, p := range in.Payloads {
		if err == nil && p != nil {
			err = ship(codes)
		}
	}
	return total, err
}
