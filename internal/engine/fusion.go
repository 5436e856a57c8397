package engine

import (
	"errors"

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
// vectors and derived columns stay in device memory claimed from one
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
//     build without fusion, and is charged the same evaluators.
//   - mid-chain fault (injected reserve/H2D/kernel/D2H failure or a dead
//     device): the chain spills its live device intermediates back to
//     the host, releases everything, and onDevice retries it once on
//     another device; a second fault resumes the query on the CPU path —
//     the staged path's discipline, and still bit-identical output thanks
//     to the canonical group ordering in buildAggOutput.

// fuseFactor bounds how much colder-than-staged a chain launch may be:
// the chain fuses when the bytes it must upload (cache misses over the
// entry table's columns) do not exceed fuseFactor x the staged path's
// input transfer. Misses are an investment — the columns stay resident
// for later chains — so the factor is deliberately >1; 2.0 keeps
// first-sight fusion on for every chain whose entry is no wider than
// twice its group-by input, which empirically covers the benchmark
// workloads without regressing modeled time.
const fuseFactor = 2.0

// chainStage describes one fused pipeline stage in execution order
// (deepest first), recorded by the exec hooks as the host operators run:
// the kernel it launches, the 64-bit words of device intermediate it
// claims and the values it streams.
type chainStage struct {
	kernel string
	words  int
	work   float64
}

// chainRec is the per-query fusion chain record. The planner marks the
// plan nodes that belong to the chain and the column set they reference;
// the exec hooks then capture the cache keys of the chain's entry (the
// deepest member's input) and per-stage row counts as execution descends.
type chainRec struct {
	members map[plan.Node]bool
	// needed is the union of columns the chain reads: filter predicates,
	// derive expressions, group-by keys and aggregate inputs. Only these
	// go through the device column cache (late materialization) — columns
	// the chain never touches are not uploaded.
	needed map[string]bool
	// entry addresses the needed columns of the chain's entry, in entry
	// column order (deterministic).
	entry  []fusion.Key
	stages []chainStage
}

// member reports whether n belongs to the chain.
func (cr *chainRec) member(n plan.Node) bool { return cr != nil && cr.members[n] }

// entryKeys keys the chain's entry, f, once: the deepest member calls it
// with its input before recording its stage, and the group-by with its
// own input, which is the entry of a stage-less chain — a scan's, a
// join's or a project's output. Every needed column is keyed where it
// lives, and nothing is copied: an unlisted part's column by its own key,
// a listed one's by its part's provenance (frame.keyed), exactly the key
// materialize gives its copy. A frame holding a listed part no key fixes
// is materialized as any other reader of lined-up values would, and its
// copies are keyed by content.
func (e *Engine) entryKeys(cr *chainRec, f *frame) {
	if len(cr.stages) > 0 {
		return
	}
	for _, p := range f.parts {
		if p.rows != nil && !f.keyed(p) {
			e.materialize(f)
			break
		}
	}
	n := f.Len()
	for _, p := range f.parts {
		for _, c := range p.tbl.Columns() {
			if !cr.needed[c.Name()] {
				continue
			}
			if f.keyed(p) {
				cr.entry = append(cr.entry, fusion.Key{H: provenanceKey(c, p.steps), N: n, T: c.Type()})
			} else {
				cr.entry = append(cr.entry, fusion.ColumnKey(c))
			}
		}
	}
}

// planFusedChain walks the aggregate's input spine and groups the
// contiguous device-eligible span into a chain: consecutive Filter and
// Derive nodes directly feeding the group-by. Anything else — a join,
// window, project — breaks the chain and becomes the entry point (its
// output is what the chain uploads or finds resident). A bare scan entry
// yields an empty-stage chain that still fuses the upload itself.
// An ORDER BY ... LIMIT k above the group-by joins the chain at its exit:
// the plan hands the group-by its k (plan.Aggregate.TopK), a topk_select
// kernel picks the k groups on the device when that pays, and only they
// cross back. A full sort is not fused: it runs through its own job
// queue (see execSort).
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
	saved     int64
	uploaded  int64
	highWater int64
}

// scratchBytes is the device footprint of the chain's intermediates, the
// words its stages claim.
func (cr *chainRec) scratchBytes() int64 {
	var b int64
	for _, st := range cr.stages {
		b += int64(st.words) * 8
	}
	return b
}

// fusedPrefer picks the device a fused chain tries first, the one with
// the fewest miss bytes for the chain's entry columns, and returns those
// misses. The column cache is per-device, and the scheduler's free-memory
// ranking would otherwise steer successive chains *away* from the warm
// device (its resident bytes read as load); ties resolve to the first
// device, concentrating fills instead of duplicating them per device.
func (e *Engine) fusedPrefer(cr *chainRec) (*gpu.Device, int64) {
	devs := e.sched.Devices()
	prefer, bestMiss := devs[0], e.fcache.MissBytes(devs[0].ID(), cr.entry)
	for _, d := range devs[1:] {
		if miss := e.fcache.MissBytes(d.ID(), cr.entry); miss < bestMiss {
			prefer, bestMiss = d, miss
		}
	}
	return prefer, bestMiss
}

// runAggregateFused attempts the group-by as a fused device chain through
// onDevice, on prefer first. The returned info is declined when the chain
// gave way — the caller then runs the staged path exactly as it would
// without fusion. An error that is not a decline is a mid-chain fault on
// every attempt: each chain spilled and released, and the caller routes
// to the CPU.
//
// deviceKeys, when not 0, is the grouping key columns fused_pack builds
// as well: it reads each, packs it, hashes the row and feeds the device's
// KMV sketch, which only sizes the device's table. The caller passes them
// when the entry is resident on prefer and charges the host key
// evaluators otherwise. overlap is their time (LCOG/CCAT/HASH), the host work the
// query has been charged before the attempt: cache fills are DMA streams
// that run concurrently with it (the same overlap idiom as
// gpu.PipelineTime), so only fill time in excess of the window is charged
// to the query. The fill bytes are never discounted — the H2D counters
// see every uploaded byte.
func (e *Engine) runAggregateFused(cr *chainRec, in *groupby.Input, demand int64, opts groupby.GPUOptions, prefer *gpu.Device, deviceKeys int, overlap vtime.Duration, f *frame, op trace.Context) (*groupby.Result, *fusedExec, gpuRunInfo, error) {
	if in.NumRows == 0 {
		return nil, nil, gpuRunInfo{declined: true}, nil
	}
	inputBytes := groupby.InputDeviceBytes(in)
	packWords := int((inputBytes + 7) / 8)
	// One reservation for the whole chain: group-by demand (packed input
	// + hash tables + result) plus the stage intermediates, with a little
	// slack for word-rounding of the packed image.
	chainDemand := demand + cr.scratchBytes() + 64
	// fused_pack streams the surviving rows once; building the keys adds a
	// read of each key column and the hash of the row.
	packWork := float64(in.NumRows)
	if deviceKeys > 0 {
		packWork += float64(in.NumRows * (deviceKeys + 1))
	}

	var out *groupby.Result
	var fx *fusedExec
	run := func(res *gpu.Reservation) ([]trace.Attr, error) {
		dev := res.Device()
		// Fuse/decline policy: how cold is the cache for this chain's entry
		// columns on the chosen device?
		if miss := e.fcache.MissBytes(dev.ID(), cr.entry); float64(miss) > fuseFactor*float64(inputBytes) {
			return []trace.Attr{trace.Str("decline", "cold-cache"), trace.Int("miss_bytes", miss)}, errFuseDecline
		}

		// live is the bytes of chain intermediates claimed so far.
		var live int64
		fault := func(cause error) ([]trace.Attr, error) {
			// Break the chain cleanly: the live device intermediates spill to
			// the host before the reservation goes. The spill is not a
			// CopyFromDevice — the device is already failing, and routing the
			// rescue copies through the fault injector would fire faults with
			// no retry/fallback to pair them with, breaking the monitor's
			// one-fault-one-handling ledger. The spilled volume is recorded
			// on the chain span instead.
			return []trace.Attr{trace.Int("spill_bytes", live)}, cause
		}

		// Acquire the chain's input columns on the device: hits pin resident
		// entries, misses upload through the cache (reserve + H2D under this
		// chain's span).
		lease, err := e.fcache.Ensure(dev, cr.entry, res.Span(), e.model, true, e.cfg.Degree)
		if err != nil {
			if errors.Is(err, gpu.ErrInjected) {
				return fault(err)
			}
			// No room even after eviction: decline, staged may still fit.
			return []trace.Attr{trace.Str("decline", err.Error())}, errFuseDecline
		}
		defer lease.Release()

		// Run the chain stages on-device: each stage claims its intermediate
		// (selection vector / derived codes) from the chain reservation and
		// charges streaming time over its input rows.
		var stageT vtime.Duration
		runStage := func(name string, words int, work float64) error {
			if words > 0 {
				bytes := int64(words) * 8
				if err := res.Claim(bytes); err != nil {
					return err
				}
				live += bytes
			}
			kr := dev.RunKernelSpan(name, res.Span(), func() vtime.Duration {
				if work <= 0 {
					return 0
				}
				return vtime.Duration(work / e.model.GPUScanRate)
			})
			if kr.Err != nil {
				return kr.Err
			}
			stageT += kr.Modeled
			return nil
		}
		for _, st := range cr.stages {
			if err := runStage(st.kernel, st.words, st.work); err != nil {
				return fault(err)
			}
		}
		// Pack the surviving rows into the group-by's compressed input layout
		// (keys + payload codes) — the fused replacement for the staged
		// path's host-side LCOV + MEMCPY + H2D upload, so a fused group-by
		// is charged neither evaluator, nor its key evaluators when the
		// keys are built here.
		if err := runStage("fused_pack", packWords, packWork); err != nil {
			return fault(err)
		}

		opts.Fused = true
		out, err = groupby.RunGPU(in, e.cfg.Degree, res, e.model, opts)
		if err != nil {
			return fault(err)
		}
		fx = &fusedExec{saved: lease.Saved, uploaded: lease.Uploaded, highWater: res.Used()}
		// The chain time beyond the group-by's own Stats.Modeled: cache
		// fills past the overlap window plus the fused stage kernels. The
		// DES profile keeps the group-by's own demand (not the chain
		// total) so concurrency replay and the ROLAP memory calibration see
		// the same per-query footprint with fusion on or off.
		chainT := max(lease.Modeled-overlap, 0) + stageT
		e.addGPU(f, chainT+out.Stats.Modeled, demand)
		e.mon.RecordFusedChain(fx.saved, fx.uploaded)
		return []trace.Attr{
			trace.Str("kernel", out.Stats.Kernel),
			trace.Int("fused", 1),
			trace.Int("stages", int64(len(cr.stages))),
			trace.Int("saved_bytes", fx.saved),
			trace.Int("upload_bytes", fx.uploaded),
			trace.Int("high_water", fx.highWater),
		}, nil
	}
	info, err := e.onDevice(op, f.q.base, &f.modeled, devCall{
		op: "groupby", span: func(int) string { return "fused-chain" }, demand: chainDemand, prefer: prefer, run: run,
	})
	return out, fx, info, err
}

// FusionCache exposes the device-resident column cache, nil when fusion
// is disabled.
func (e *Engine) FusionCache() *fusion.Cache { return e.fcache }
