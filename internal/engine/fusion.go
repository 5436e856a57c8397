package engine

import (
	"errors"

	"blugpu/internal/columnar"
	"blugpu/internal/expr"
	"blugpu/internal/fusion"
	"blugpu/internal/gpu"
	"blugpu/internal/groupby"
	"blugpu/internal/plan"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// This file implements the engine's fused data path: when the optimizer
// sends a group-by to the device, the whole operator chain feeding it —
// scan/join output through consecutive filters and derives — executes as
// one device pipeline. The chain's input columns come from the
// device-resident column cache (internal/fusion), per-stage selection
// vectors and derived columns stay in device buffers allocated from one
// chain-level reservation, and the only host round-trip is the dense
// result block at chain exit.
//
// The host operators still run functionally (the simulation computes on
// host slices), so the fused path changes what is *modeled and
// accounted*: H2D traffic collapses to cache misses, D2H defers to chain
// exit, and one reservation spans the chain instead of per-operator
// reserve/release. Falling out of the fused path can happen two ways,
// with very different handling:
//
//   - decline (no room, cold cache, placement failure): not an error.
//     The group-by falls through to the staged path, byte-identical to a
//     build without fusion.
//   - mid-chain fault (injected reserve/H2D/kernel/D2H failure or a dead
//     device): the chain spills its live device intermediates back to
//     the host, releases everything, and the query resumes on the CPU
//     path — the same Section 2.1.1 fallback discipline as the staged
//     path, and still bit-identical output thanks to the canonical
//     group ordering in buildAggOutput.

// fuseFactor bounds how much colder-than-staged a chain launch may be:
// the chain fuses when the bytes it must upload (cache misses over the
// entry table's columns) do not exceed fuseFactor x the staged path's
// input transfer. Misses are an investment — the columns stay resident
// for later chains — so the factor is deliberately >1; 2.0 keeps
// first-sight fusion on for every chain whose entry is no wider than
// twice its group-by input, which empirically covers the benchmark
// workloads without regressing modeled time.
const fuseFactor = 2.0

// errFuseDecline is what a placed fused attempt returns to sched.Run when
// it gives the reservation back without having tried the device: not a
// fault, so it leaves the breaker alone.
var errFuseDecline = errors.New("engine: fused chain declined")

// chainStage describes one fused pipeline stage in execution order
// (deepest first), recorded by the exec hooks as the host operators run.
type chainStage struct {
	op      string // "filter" or "derive"
	inRows  int
	outRows int
	cols    int // derived column count for "derive"
}

// chainRec is the per-query fusion chain record. The planner marks the
// plan nodes that belong to the chain and the column set they reference;
// the exec hooks then capture the chain's entry table (the deepest
// member's input) and per-stage row counts as execution descends.
type chainRec struct {
	members map[plan.Node]bool
	// needed is the union of columns the chain reads: filter predicates,
	// derive expressions, group-by keys and aggregate inputs. Only these
	// go through the device column cache (late materialization) — columns
	// the chain never touches are not uploaded.
	needed map[string]bool
	entry  *columnar.Table
	stages []chainStage
}

// member reports whether n belongs to the chain.
func (cr *chainRec) member(n plan.Node) bool { return cr != nil && cr.members[n] }

// noteEntry captures the chain's entry table: the first recording member
// is the deepest, so the first table wins.
func (cr *chainRec) noteEntry(tbl *columnar.Table) {
	if cr.entry == nil {
		cr.entry = tbl
	}
}

// planFusedChain walks the aggregate's input spine and groups the
// contiguous device-eligible span into a chain: consecutive Filter and
// Derive nodes directly feeding the group-by. Anything else — a join,
// window, project — breaks the chain and becomes the entry point (its
// output is what the chain uploads or finds resident). A bare scan entry
// yields an empty-stage chain that still fuses the upload itself.
// GPU sort entry points are recognized but not fused in this design —
// device sort runs through its own job queue (see execSort).
func planFusedChain(n *plan.Aggregate) *chainRec {
	cr := &chainRec{members: make(map[plan.Node]bool), needed: make(map[string]bool)}
	for _, k := range n.Keys {
		cr.needed[k] = true
	}
	for _, a := range n.Aggs {
		if a.Column != "" {
			cr.needed[a.Column] = true
		}
	}
	for cur := n.Input; ; {
		switch x := cur.(type) {
		case *plan.Filter:
			cr.members[x] = true
			for _, c := range expr.Columns(x.Pred) {
				cr.needed[c] = true
			}
			cur = x.Input
		case *plan.Derive:
			cr.members[x] = true
			for _, dc := range x.Cols {
				for _, c := range expr.Columns(dc.Expr) {
					cr.needed[c] = true
				}
			}
			cur = x.Input
		default:
			return cr
		}
	}
}

// fusedExec summarizes one fused chain execution for EXPLAIN ANALYZE.
type fusedExec struct {
	stages    int
	saved     int64
	uploaded  int64
	highWater int64
	// chainModeled is the chain time charged beyond the group-by's own
	// Stats.Modeled — cache fills plus the fused stage kernels. The
	// aggregate executor folds it into the operator's self time so
	// EXPLAIN ANALYZE's self-time sum still equals the query total.
	chainModeled vtime.Duration
}

// scratchBytes is the device footprint of the chain's intermediates:
// one 4-byte selection-index vector per filter stage (sized by its
// output) and 4-byte code vectors for derived columns.
func (cr *chainRec) scratchBytes() int64 {
	var b int64
	for _, st := range cr.stages {
		if st.op == "filter" {
			b += fusion.DeviceBytes(st.outRows)
		} else {
			b += fusion.DeviceBytes(st.inRows) * int64(st.cols)
		}
	}
	return b
}

// runAggregateFused attempts the group-by as a fused device chain.
// Returns (nil info, nil fusedExec, nil error) on decline — the caller
// then runs the staged path exactly as it would without fusion. A
// non-nil fusedExec with a non-nil error is a mid-chain fault: the chain
// has already spilled and released, and the caller routes to the CPU.
//
// overlap is the host evaluator-chain time the query has already been
// charged: cache fills are DMA streams that run concurrently with that
// host work (the same overlap idiom as gpu.PipelineTime), so only fill
// time in excess of the window is charged to the query. The fill bytes
// are never discounted — the H2D counters see every uploaded byte.
func (e *Engine) runAggregateFused(cr *chainRec, in *groupby.Input, demand int64, pinned bool, overlap vtime.Duration, f *frame, op trace.Context) (*groupby.Result, gpuRunInfo, *fusedExec, error) {
	var info gpuRunInfo
	if e.sched == nil || e.fcache == nil || cr == nil || cr.entry == nil || in.NumRows == 0 {
		return nil, info, nil, nil
	}
	// Late materialization: only the columns the chain reads go through
	// the cache, in entry-table column order (deterministic).
	var entryCols []columnar.Column
	for _, c := range cr.entry.Columns() {
		if cr.needed[c.Name()] {
			entryCols = append(entryCols, c)
		}
	}
	inputBytes := groupby.InputDeviceBytes(in)
	packWords := int((inputBytes + 7) / 8)
	// One reservation for the whole chain: group-by demand (packed input
	// + hash tables + result) plus the stage intermediates, with a little
	// slack for word-rounding of the packed image.
	chainDemand := demand + cr.scratchBytes() + 64

	// Committed to the fused attempt once attempt gets past its two
	// declines; fx then describes it, fault or not.
	fx := &fusedExec{stages: len(cr.stages)}
	var (
		out          *groupby.Result
		declineAttrs []trace.Attr
		spilled      int64
		fillT        vtime.Duration
		stageT       vtime.Duration
	)
	g := op.Begin("gpu", "fused-chain", f.at())
	attempt := func(res *gpu.Reservation) error {
		dev := res.Device()
		// Fuse/decline policy: how cold is the cache for this chain's entry
		// columns on the chosen device?
		if miss := e.fcache.MissBytes(dev.ID(), entryCols); float64(miss) > fuseFactor*float64(inputBytes) {
			declineAttrs = []trace.Attr{trace.Str("decline", "cold-cache"), trace.Int("miss_bytes", miss)}
			return errFuseDecline
		}

		// Track live chain intermediates for spill-on-fault.
		var live []*gpu.Buffer
		fault := func(cause error) error {
			// Break the chain cleanly: spill the live device intermediates to
			// host scratch before the reservation goes. The spill is a direct
			// host copy, not a CopyFromDevice — the device is already
			// failing, and routing the rescue copies through the fault
			// injector would fire faults with no retry/fallback to pair them
			// with, breaking the monitor's one-fault-one-handling ledger. The
			// spilled volume is recorded on the chain span instead.
			for _, b := range live {
				scratch := make([]uint64, b.Len())
				copy(scratch, b.Words())
				spilled += b.Bytes()
			}
			return cause
		}

		// Acquire the chain's input columns on the device: hits pin resident
		// entries, misses upload through the cache (reserve + H2D under this
		// chain's span).
		lease, err := e.fcache.Ensure(dev, entryCols, g.ID(), e.model, true, e.cfg.Degree)
		if err != nil {
			if errors.Is(err, gpu.ErrInjected) {
				return fault(err)
			}
			// No room even after eviction: decline, staged may still fit.
			declineAttrs = []trace.Attr{trace.Str("decline", err.Error())}
			return errFuseDecline
		}
		defer lease.Release()
		fx.saved, fx.uploaded, fillT = lease.Saved, lease.Uploaded, lease.Modeled

		// Run the chain stages on-device: each stage writes its intermediate
		// (selection vector / derived codes) into the chain reservation and
		// charges streaming time over its input rows.
		runStage := func(name string, words int, work float64) error {
			if words > 0 {
				buf, err := res.AllocWords(words)
				if err != nil {
					return err
				}
				live = append(live, buf)
			}
			kr := dev.RunKernelSpan(name, g.ID(), nil, func(_ *gpu.Grid) (vtime.Duration, error) {
				if work <= 0 {
					return 0, nil
				}
				return vtime.Duration(work / e.model.GPUScanRate), nil
			})
			if kr.Err != nil {
				return kr.Err
			}
			stageT += kr.Modeled
			return nil
		}
		for _, st := range cr.stages {
			switch st.op {
			case "filter":
				if err := runStage("fused_filter", int(fusion.DeviceBytes(st.outRows)/8), float64(st.inRows)); err != nil {
					return fault(err)
				}
			case "derive":
				words := int(fusion.DeviceBytes(st.inRows)/8) * st.cols
				if err := runStage("fused_derive", words, float64(st.inRows*st.cols)); err != nil {
					return fault(err)
				}
			}
		}
		// Pack the surviving rows into the group-by's compressed input layout
		// (keys + payload codes) — the fused replacement for the staged
		// path's host-side MEMCPY + H2D upload.
		if err := runStage("fused_pack", packWords, float64(in.NumRows)); err != nil {
			return fault(err)
		}

		out, err = groupby.RunGPU(in, res, e.model, groupby.GPUOptions{
			Race:   e.cfg.Race,
			Pinned: pinned,
			Fused:  true,
		})
		if err != nil {
			return fault(err)
		}
		fx.highWater = res.Used()
		return nil
	}

	// Cache affinity: the column cache is per-device, and the scheduler's
	// free-memory ranking would otherwise steer successive chains *away*
	// from the warm device (its resident bytes read as load). Prefer the
	// device with the fewest miss bytes for this chain's columns; ties
	// resolve to the first device, concentrating fills instead of
	// duplicating them per device.
	var dev *gpu.Device
	var err error
	if devs := e.sched.Devices(); len(devs) > 1 {
		prefer, bestMiss := devs[0], e.fcache.MissBytes(devs[0].ID(), entryCols)
		for _, d := range devs[1:] {
			if miss := e.fcache.MissBytes(d.ID(), entryCols); miss < bestMiss {
				prefer, bestMiss = d, miss
			}
		}
		exclude := make(map[int]bool, len(devs)-1)
		for _, d := range devs {
			if d != prefer {
				exclude[d.ID()] = true
			}
		}
		dev, err = e.sched.Run(g, f.at(), chainDemand, exclude, attempt)
		if dev == nil {
			// Preferred device declined; widen to the fleet. The swallowed
			// failure is recorded as a place retry — exactly what the
			// scheduler does when it moves down its own candidate ranking —
			// so an injected reservation fault stays paired with one
			// handling in the monitor's ledger.
			e.mon.RecordGPURetry("place", errors.Is(err, gpu.ErrInjected))
		}
	}
	if dev == nil {
		dev, err = e.sched.Run(g, f.at(), chainDemand, nil, attempt)
	}
	// Resident cache bytes must never starve live queries: purge and
	// retry once.
	if dev == nil && e.fcache.PurgeAll() > 0 {
		e.mon.RecordGPURetry("place", errors.Is(err, gpu.ErrInjected))
		dev, err = e.sched.Run(g, f.at(), chainDemand, nil, attempt)
	}
	switch {
	case dev == nil && errors.Is(err, gpu.ErrInjected):
		// A terminal injected fault must surface as a faulted CPU
		// fallback (the staged path's discipline); declining to the
		// staged path would leave it unhandled.
		g.End(f.at(), trace.Str("error", err.Error()))
		return nil, info, nil, err
	case dev == nil:
		// Non-faulted failures (busy fleet, demand too large) decline to
		// the smaller staged demand.
		g.End(f.at(), trace.Str("decline", err.Error()))
		return nil, info, nil, nil
	case errors.Is(err, errFuseDecline):
		g.End(f.at(), append([]trace.Attr{trace.Int("device", int64(dev.ID()))}, declineAttrs...)...)
		return nil, info, nil, nil
	}
	info.attempts++
	info.devices = append(info.devices, dev.ID())
	if err != nil {
		g.End(f.at(), trace.Int("device", int64(dev.ID())),
			trace.Int("spill_bytes", spilled), trace.Str("error", err.Error()))
		return nil, info, fx, err
	}
	fill := fillT - overlap
	if fill < 0 {
		fill = 0
	}
	fx.chainModeled = fill + stageT
	total := fx.chainModeled + out.Stats.Modeled
	e.mon.RecordMemSample(dev.ID(), vtime.Time(f.modeled.Seconds()), chainDemand, dev.TotalMemory())
	// The DES profile keeps the group-by's own demand (not the chain
	// total) so concurrency replay and the ROLAP memory calibration see
	// the same per-query footprint with fusion on or off.
	e.addGPU(f, total, demand)
	e.mon.RecordMemSample(dev.ID(), vtime.Time(f.modeled.Seconds()), 0, dev.TotalMemory())
	e.mon.RecordFusedChain(fx.saved, fx.uploaded)
	g.End(f.at(),
		trace.Int("device", int64(dev.ID())),
		trace.Str("kernel", out.Stats.Kernel),
		trace.Int("fused", 1),
		trace.Int("stages", int64(fx.stages)),
		trace.Int("saved_bytes", fx.saved),
		trace.Int("upload_bytes", fx.uploaded),
		trace.Int("high_water", fx.highWater))
	return out, info, fx, nil
}

// FusionEnabled reports whether the fused data path is active.
func (e *Engine) FusionEnabled() bool { return e.fcache != nil }

// FusionCache exposes the device-resident column cache, nil when fusion
// is disabled.
func (e *Engine) FusionCache() *fusion.Cache { return e.fcache }
