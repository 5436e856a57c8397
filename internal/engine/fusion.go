package engine

import (
	"errors"
	"math"
	"slices"

	"blugpu/internal/evaluator"
	"blugpu/internal/expr"
	"blugpu/internal/fusion"
	"blugpu/internal/gpu"
	"blugpu/internal/groupby"
	"blugpu/internal/optimizer"
	"blugpu/internal/plan"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// This file implements the engine's fused data path: when the optimizer
// sends a group-by to the device, the whole operator chain feeding it —
// the star join under it, then consecutive filters and derives — executes
// as one device pipeline. The chain's input columns and the joins' build
// tables come from the device-resident cache (internal/fusion), per-stage
// selection vectors, match lists and derived columns stay in device memory
// claimed from one chain-level reservation, and the only host round-trip
// is the dense result block at chain exit.
//
// The host operators still run functionally (the simulation computes on
// host slices), so the fused path changes what is *modeled and
// accounted*: H2D traffic collapses to cache misses, D2H defers to chain
// exit, a resident chain's joins are charged their device probe in place
// of the host's, and one reservation spans the chain instead of
// per-operator reserve/release. Falling out of the fused path can happen
// two ways, with very different handling:
//
//   - decline (no room, cold cache, placement failure): not an error.
//     The group-by falls through to the staged path, byte-identical to a
//     build without fusion, and is charged the same evaluators and joins.
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
// claims, the values it streams and the hash lookups it makes.
type chainStage struct {
	kernel  string
	words   int
	work    float64
	lookups float64
}

// time is the stage's kernel time before its launch: its streamed values
// at GPUScanRate and its lookups at GPUHashInsertRate.
func (st chainStage) time(m *vtime.CostModel) vtime.Duration {
	var t vtime.Duration
	if st.work > 0 {
		t += vtime.Duration(st.work / m.GPUScanRate)
	}
	if st.lookups > 0 {
		t += vtime.Duration(st.lookups / m.GPUHashInsertRate)
	}
	return t
}

// chainRec is the per-query fusion chain record. The planner marks the
// plan nodes that belong to the chain and the column set they reference;
// the exec hooks then capture the cache keys of the chain's entry (the
// deepest member's input) and per-stage row counts as execution descends.
type chainRec struct {
	members map[plan.Node]bool
	// needed is the union of columns the chain reads: filter predicates,
	// derive expressions, group-by keys and aggregate inputs. Only these go
	// through the device column cache (late materialization) — columns the
	// chain never touches are not uploaded. joinKeys are the key columns
	// of the joins it spans, which the device probe reads too.
	needed   map[string]bool
	joinKeys map[string]bool
	// entry addresses the needed columns of what the chain's deepest stage,
	// or the group-by, reads, in column order (entryKeys): for a chain that
	// spans joins run on the host, their output, the host-join entry. join
	// is the join entry placeJoins keys at the joins' bottom, with their
	// build tables, until pin leaves it unpinned. fills is what the attempt
	// pins, in the order its fills cross (pin).
	entry  []fusion.Key
	join   []fusion.Key
	fills  []fill
	stages []chainStage

	// A chain that spans joins is prepared at the join (placeJoins), before
	// any join runs: Figure 3 is decided there, on the pre-join row
	// estimate, for the group-by agg lowered to aggs.
	agg      *plan.Aggregate
	aggs     []evaluator.AggColumn
	decided  bool
	estRows  int64
	est      optimizer.Estimate
	decision optimizer.Decision
	reason   optimizer.Reason
	// prefer, once set, is the device the chain tries first, and miss the
	// misses there of the entry the group-by reads: the join entry's from
	// placeJoins, what pin decides once the joins have run.
	prefer *gpu.Device
	miss   int64
	// deviceJoins: the join entry is resident and probing there pays, so
	// the joins probe on the device, each a fused_join stage, and their
	// host time, joinT, is charged only when the chain leaves. probeT is
	// what those stages take on the device (settle).
	deviceJoins bool
	joins       int
	joinT       vtime.Duration
	probeT      vtime.Duration
	// ready is the query's charge when the join entry's last image came to
	// exist: 0 for a bare scan bottom, the bottom filter's end otherwise.
	ready vtime.Duration
}

// fill is one part of what a fused chain pins, and since, the host work
// the query was charged between that part's images coming to exist and
// the group-by's key evaluators: 0 for an entry the group-by's input
// holds, the host joins (and a bare bottom's scan) for a join entry.
type fill struct {
	keys  []fusion.Key
	since vtime.Duration
}

// exposed is the time the fills of parts, part i taking t(i), run past
// the host work they stream beside, which ends with keysT of key
// evaluators: the part of the fills the query waits for. The parts cross
// in order, each once its images exist and the one before it has crossed.
func exposed(parts []fill, keysT vtime.Duration, t func(i int) vtime.Duration) vtime.Duration {
	late := vtime.Duration(math.Inf(-1)) // when the last part crossed, after the host work ended
	for i, p := range parts {
		late = max(late, -(p.since+keysT)) + t(i)
	}
	return max(late, 0)
}

// member reports whether n belongs to the chain.
func (cr *chainRec) member(n plan.Node) bool { return cr != nil && cr.members[n] }

// entryKeys keys the chain's entry, f, once: the deepest member calls it
// with its input before recording its stage, and the group-by with its
// own input, which is the entry of a stage-less chain — a scan's, a
// join's or a project's output. Every needed column is keyed where it
// lives (frameKeys), and nothing is copied. A frame holding a part no key
// fixes is materialized as any other reader of lined-up values would, and
// its copies are keyed by content.
func (e *Engine) entryKeys(cr *chainRec, f *frame) {
	if len(cr.stages) > 0 {
		return
	}
	if slices.ContainsFunc(f.parts, func(p part) bool { return !p.keyed() }) {
		e.materialize(f)
	}
	cr.entry = frameKeys(f, func(name string) bool { return cr.needed[name] })
}

// frameKeys keys f's columns that read holds, part by part in column
// order: an unlisted part's column by its own key, a listed part's by its
// provenance, exactly the key materialize gives its copy. Every part of f
// must be keyed.
func frameKeys(f *frame, read func(string) bool) []fusion.Key {
	var keys []fusion.Key
	n := f.Len()
	for _, p := range f.parts {
		for _, c := range p.tbl.Columns() {
			switch {
			case !read(c.Name()):
			case p.rows == nil:
				keys = append(keys, fusion.ColumnKey(c))
			default:
				keys = append(keys, fusion.Key{H: provenanceKey(c, p.steps), N: n, T: c.Type()})
			}
		}
	}
	return keys
}

// planFusedChain walks the aggregate's input spine and groups the
// contiguous device-eligible span into a chain: consecutive Filter and
// Derive nodes directly feeding the group-by and, below them, a chain of
// joins whose bottom is a scan or a filtered scan. Anything else — a
// window, a project, a join over another input or under a filter, whose
// selectivity no estimate made before the join knows — breaks the chain
// and becomes the entry point (its output is what the chain uploads or
// finds resident). A chain that spans joins enters at their bottom: its
// entry is the bottom's columns the chain reads, the dimension columns it
// reads and one device build table per join, all entries of the fusion
// cache, and each join is a fused_join stage when the entry is resident
// and probing there pays (placeJoins, settle); otherwise the joins run on
// the host and the chain reads their output, filling the join entry beside
// it when that costs the run nothing more (pin). A bare scan entry
// yields an empty-stage chain that still fuses the upload itself.
// An ORDER BY ... LIMIT k above the group-by joins the chain at its exit:
// the plan hands the group-by its k (plan.Aggregate.TopK), a topk_select
// kernel picks the k groups on the device when that pays, and only they
// cross back. A full sort is not fused: it runs through its own job
// queue (see execSort).
func planFusedChain(n *plan.Aggregate) *chainRec {
	cr := &chainRec{members: make(map[plan.Node]bool), needed: make(map[string]bool), agg: n}
	for _, k := range n.Keys {
		cr.needed[k] = true
	}
	for _, a := range n.Aggs {
		if a.Column != "" {
			cr.needed[a.Column] = true
		}
	}
	filtered := false
	for cur := n.Input; ; {
		switch x := cur.(type) {
		case *plan.Filter:
			cr.members[x] = true
			filtered = true
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
		case *plan.Join:
			if filtered {
				return cr
			}
			bottom := plan.Node(x)
			for j, ok := bottom.(*plan.Join); ok; j, ok = bottom.(*plan.Join) {
				bottom = j.Left
			}
			if f, ok := bottom.(*plan.Filter); ok {
				bottom = f.Input
			}
			if _, ok := bottom.(*plan.Scan); !ok {
				return cr
			}
			cr.joinKeys = make(map[string]bool)
			for j, ok := cur.(*plan.Join); ok; j, ok = cur.(*plan.Join) {
				cr.members[j] = true
				cr.joinKeys[j.LeftCol], cr.joinKeys[j.RightCol] = true, true
				cur = j.Left
			}
			return cr
		default:
			return cr
		}
	}
}

// placeJoins prepares a chain that spans the joins of links, over their
// bottom f, before any of them runs. It keys the chain's join entry — f's
// columns the chain reads (frameKeys); per join, its build table, keyed by
// its build identity (sides.build), and the dimension's columns the chain
// reads — and decides Figure 3 on what is known before the joins: f's rows
// times each join's kept fraction and its probe key's share of non-NULL
// rows in the statistics. When the group-by goes to the device, it picks
// the device the chain prefers and the join entry's misses there, from
// which the joins' charge is settled once they have run (settle). A chain
// it cannot key is left to the host joins: the join that cannot run
// reports why.
func (e *Engine) placeJoins(cr *chainRec, f *frame, links []*link) {
	if len(f.parts) != 1 || !f.parts[0].keyed() {
		return
	}
	read := func(name string) bool { return cr.needed[name] || cr.joinKeys[name] }
	join := frameKeys(f, read)
	rows := float64(f.Len())
	// left is what each join reads, as far as its sides go: the bottom
	// and the tables the joins before it joined.
	left := &frame{parts: []part{f.parts[0]}}
	for i, l := range links {
		s, err := e.joinSides(left, l.n)
		if err != nil || s.right.Rows() == 0 || !e.evalPreds(links, []int{i}) {
			return
		}
		n := s.right.Rows()
		if l.n.Pred != nil {
			n = len(l.kept)
		}
		rows *= float64(n) / float64(s.right.Rows()) * e.nonNull(left.parts[s.lpart].tbl.Name(), s.lcol)
		dim := part{tbl: s.right}
		join = append(join, fusion.BuildKey(s.build, n))
		join = append(join, frameKeys(&frame{parts: []part{dim}}, func(name string) bool { return name != s.rcol && read(name) })...)
		left.parts = append(left.parts, dim)
	}
	cr.join = join
	if f.parts[0].rows != nil {
		cr.ready = f.modeled
	}
	cr.decided, cr.estRows = true, int64(rows)
	cr.est = e.estimate(cr.agg, cr.aggs, cr.estRows)
	cr.decision, cr.reason = optimizer.Decide(cr.est, e.thresholds, e.maxDeviceMem())
	if cr.decision == optimizer.UseGPU {
		cr.prefer, cr.miss = e.fusedPrefer(cr.join)
	}
}

// settle adds up the host time of the chain's joins, steps, over probe
// rows, and what the fused_join stages they would be take on the device,
// launches included. It takes those stages (deviceJoins) when the join
// entry is resident on the device the chain prefers and probing there
// costs no more than the host joins.
func (cr *chainRec) settle(m *vtime.CostModel, probe int, steps []joined) {
	stages := make([]chainStage, len(steps))
	for i, st := range steps {
		rows := (&frame{parts: st.parts}).Len()
		stages[i] = joinStage(st, probe, rows)
		cr.joinT += st.t
		cr.probeT += stages[i].time(m) + m.GPUKernelLaunch
		probe = rows
	}
	if cr.prefer != nil && cr.miss == 0 && cr.probeT <= cr.joinT {
		cr.deviceJoins, cr.joins = true, len(steps)
		cr.stages = append(cr.stages, stages...)
	}
}

// pin decides what a chain that may fuse pins, in the order its fills
// cross, the device it tries first and the misses there of the entry the
// group-by reads: the one place fills, prefer and miss are set once the
// joins have run. keys are the group-by's key evaluators, at the query's
// charge so far.
//
// A chain that probes its joins on the device pins its join entry. Any
// other pins its entry — for a chain that spans joins, their output, the
// host-join entry — on the device with the fewest misses for it. It fills
// its join entry first, on the device that entry prefers, only when the
// probe pays, both fit beside the chain's reservation, the cold-cache
// policy (fuseFactor) takes the host-join entry, and this run pays no more
// for both than for the host-join entry alone: the join entry's fill
// streams beside the host joins, from the query's start or its bottom
// filter's end (ready), the host-join entry's only once they ran, beside
// the keys (exposed). A chain whose host-join entry is resident has run
// before, so it may pay up to what one later run saves by probing on the
// device (joinT - probeT), the break-even of filling once for a repeat. A
// chain that leaves its join entry unpinned drops it: only one that pins
// it was priced on prefer.
func (e *Engine) pin(cr *chainRec, keys []evaluator.Eval, at vtime.Duration, in *groupby.Input, demand int64) {
	if cr.deviceJoins {
		cr.fills = []fill{{cr.join, at - cr.ready}}
		return
	}
	host := fill{keys: cr.entry}
	prefer, miss := e.fusedPrefer(cr.entry)
	if cr.join != nil && cr.probeT <= cr.joinT {
		var keysT vtime.Duration
		for _, ev := range keys {
			keysT += ev.Modeled
		}
		// cost is what reading the host-join entry on dev, after filling
		// parts there, adds to the query from at on, and the entry's misses
		// there.
		cost := func(dev *gpu.Device, parts []fill) (vtime.Duration, int64) {
			miss, kT := e.fcache.MissBytes(dev.ID(), cr.entry), vtime.Duration(0)
			if miss > 0 {
				kT = keysT
			}
			return kT + exposed(parts, kT, func(i int) vtime.Duration {
				return e.fcache.MissTime(dev.ID(), parts[i].keys)
			}), miss
		}
		hostT, _ := cost(prefer, []fill{host})
		// The join entry already pins the bottom's unlisted columns the
		// group-by reads: the host-join entry fills only the rest.
		rest := slices.DeleteFunc(slices.Clone(cr.entry), func(k fusion.Key) bool { return slices.Contains(cr.join, k) })
		both := []fill{{cr.join, at - cr.ready}, {keys: rest}}
		bothT, bothMiss := cost(cr.prefer, both)
		room := cr.prefer.TotalMemory() - cr.reservation(demand)
		for _, k := range pinned(both) {
			room -= k.Bytes()
		}
		var invest vtime.Duration
		if miss == 0 {
			invest = cr.joinT - cr.probeT
		}
		if room >= 0 && float64(miss) <= fuseFactor*float64(groupby.InputDeviceBytes(in)) && bothT <= hostT+invest {
			cr.fills, cr.miss = both, bothMiss
			return
		}
	}
	cr.join, cr.fills, cr.prefer, cr.miss = nil, []fill{host}, prefer, miss
}

// pinned is every key the fills parts pin, in the order they cross.
func pinned(parts []fill) []fusion.Key {
	var keys []fusion.Key
	for _, p := range parts {
		keys = append(keys, p.keys...)
	}
	return keys
}

// nonNull is the share of table's rows whose column col — a probe key —
// is not NULL, from its statistics: a NULL key matches nothing. It is 1
// when the statistics do not know the column.
func (e *Engine) nonNull(table, col string) float64 {
	if ts := e.stats[table]; ts != nil && ts.Rows > 0 && ts.Columns[col] != nil {
		return 1 - float64(ts.Columns[col].Nulls)/float64(ts.Rows)
	}
	return 1
}

// preJoinRows is the row estimate Figure 3 was decided on before the
// joins the chain spans ran, 0 when it was decided on the exact count.
func (cr *chainRec) preJoinRows() int64 {
	if cr == nil || !cr.decided {
		return 0
	}
	return cr.estRows
}

// joinStage is the fused_join stage of a join the chain probes on the
// device: probe rows reach it, the output rows leave it. Where the host
// tested the kept keys' range first (skipped >= 0), so does the device,
// at its scan rate, and only the rows inside the range look the build
// table up; the stage then gathers the output's dimension codes. It claims
// the output's match list and the gathered codes.
func joinStage(st joined, probe, rows int) chainStage {
	cs := chainStage{
		kernel:  "fused_join",
		words:   int(fusion.DeviceBytes(rows)/8) * (1 + st.dimCols),
		work:    float64(rows * st.dimCols),
		lookups: float64(probe),
	}
	if st.skipped >= 0 {
		cs.work += float64(probe)
		cs.lookups -= float64(st.skipped)
	}
	return cs
}

// fusedExec summarizes one fused chain execution for EXPLAIN ANALYZE.
type fusedExec struct {
	saved     int64
	uploaded  int64
	highWater int64
}

// reservation is the chain's one reservation for a group-by of demand
// bytes: that demand (packed input + hash tables + result) plus the words
// its stages claim, with a little slack for word-rounding of the packed
// image.
func (cr *chainRec) reservation(demand int64) int64 {
	b := demand + 64
	for _, st := range cr.stages {
		b += int64(st.words) * 8
	}
	return b
}

// fusedPrefer picks the device a fused chain tries first, the one with
// the fewest miss bytes for the chain's entry, and returns those
// misses. The column cache is per-device, and the scheduler's free-memory
// ranking would otherwise steer successive chains *away* from the warm
// device (its resident bytes read as load); ties resolve to the first
// device, concentrating fills instead of duplicating them per device.
func (e *Engine) fusedPrefer(entry []fusion.Key) (*gpu.Device, int64) {
	devs := e.sched.Devices()
	prefer, bestMiss := devs[0], e.fcache.MissBytes(devs[0].ID(), entry)
	for _, d := range devs[1:] {
		if miss := e.fcache.MissBytes(d.ID(), entry); miss < bestMiss {
			prefer, bestMiss = d, miss
		}
	}
	return prefer, bestMiss
}

// runAggregateFused attempts the group-by as a fused device chain through
// onDevice, on the device the chain prefers first. The returned info is
// declined when the chain gave way — the caller then runs the staged path
// exactly as it would without fusion. An error that is not a decline is a
// mid-chain fault on every attempt: each chain spilled and released, and
// the caller routes to the CPU.
//
// deviceKeys, when not 0, is the grouping key columns fused_pack builds
// as well: it reads each, packs it, hashes the row and feeds the device's
// KMV sketch, which only sizes the device's table. The caller passes them
// when the entry is resident there and charges the host key evaluators
// otherwise, keysT, before the attempt. The chain pins cr.fills in order
// (pin). Cache fills are DMA streams that run concurrently with the host
// work the query has been charged since each part's images existed — the
// key evaluators (LCOG/CCAT/HASH), and the host joins for a join entry
// (the same overlap idiom as gpu.PipelineTime) — so only fill time past
// that work is charged to the query (exposed). The fill bytes are never
// discounted — the H2D counters see every uploaded byte.
func (e *Engine) runAggregateFused(cr *chainRec, in *groupby.Input, demand int64, opts groupby.GPUOptions, deviceKeys int, keysT vtime.Duration, f *frame, op trace.Context) (*groupby.Result, *fusedExec, gpuRunInfo, error) {
	if in.NumRows == 0 {
		return nil, nil, gpuRunInfo{declined: true}, nil
	}
	inputBytes := groupby.InputDeviceBytes(in)
	packWords := int((inputBytes + 7) / 8)
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
		// Fuse/decline policy: how cold is the cache on the chosen device for
		// what the chain pins? A chain that pins its join entry was priced on
		// the device it prefers (pin, settle); on any other device it takes
		// the test too.
		if miss := e.fcache.MissBytes(dev.ID(), pinned(cr.fills)); !(cr.join != nil && dev == cr.prefer) && float64(miss) > fuseFactor*float64(inputBytes) {
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

		// Acquire the chain's input columns on the device, part by part:
		// hits pin resident entries, misses upload through the cache
		// (reserve + H2D under this chain's span).
		fillT := make([]vtime.Duration, len(cr.fills))
		var saved, uploaded int64
		for i, p := range cr.fills {
			lease, err := e.fcache.Ensure(dev, p.keys, res.Span())
			if err != nil {
				if errors.Is(err, gpu.ErrInjected) {
					return fault(err)
				}
				// No room even after eviction: decline, staged may still fit.
				return []trace.Attr{trace.Str("decline", err.Error())}, errFuseDecline
			}
			defer lease.Release()
			fillT[i], saved, uploaded = lease.Modeled, saved+lease.Saved, uploaded+lease.Uploaded
		}

		// Run the chain stages on-device: each stage claims its intermediate
		// (selection vector / derived codes) from the chain reservation and
		// charges streaming time over its input rows.
		var stageT vtime.Duration
		runStage := func(st chainStage) error {
			if st.words > 0 {
				bytes := int64(st.words) * 8
				if err := res.Claim(bytes); err != nil {
					return err
				}
				live += bytes
			}
			kr := dev.RunKernelSpan(st.kernel, res.Span(), func() vtime.Duration { return st.time(e.model) })
			if kr.Err != nil {
				return kr.Err
			}
			stageT += kr.Modeled
			return nil
		}
		for _, st := range cr.stages {
			if err := runStage(st); err != nil {
				return fault(err)
			}
		}
		// Pack the surviving rows into the group-by's compressed input layout
		// (keys + payload codes) — the fused replacement for the staged
		// path's host-side LCOV + MEMCPY + H2D upload, so a fused group-by
		// is charged neither evaluator, nor its key evaluators when the
		// keys are built here.
		if err := runStage(chainStage{kernel: "fused_pack", words: packWords, work: packWork}); err != nil {
			return fault(err)
		}

		opts.Fused = true
		var err error
		if out, err = groupby.RunGPU(in, e.cfg.Degree, res, e.model, opts); err != nil {
			return fault(err)
		}
		fx = &fusedExec{saved: saved, uploaded: uploaded, highWater: res.Used()}
		// The chain time beyond the group-by's own Stats.Modeled: cache
		// fills past the host work they overlap plus the fused stage
		// kernels. The DES profile keeps the group-by's own demand (not the
		// chain total) so concurrency replay and the ROLAP memory
		// calibration see the same per-query footprint with fusion on or
		// off.
		chainT := exposed(cr.fills, keysT, func(i int) vtime.Duration { return fillT[i] }) + stageT
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
		op: "groupby", span: func(int) string { return "fused-chain" }, demand: cr.reservation(demand), prefer: cr.prefer, run: run,
	})
	return out, fx, info, err
}

// FusionCache exposes the device-resident column cache, nil when fusion
// is disabled.
func (e *Engine) FusionCache() *fusion.Cache { return e.fcache }
