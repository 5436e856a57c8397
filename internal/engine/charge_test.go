package engine

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/fault"
	"blugpu/internal/fusion"
	"blugpu/internal/groupby"
	"blugpu/internal/optimizer"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

// chargeRun is one traced run of a statement: its group-by row, the
// group-by's eval spans in order, the fused-chain span, the fused_pack and
// fused_join kernel spans, the host-join spans the group-by's row parents,
// the time of every span the group-by's row parents, the join rows' self
// time and the monitor's evaluator records.
type chargeRun struct {
	gb       OpStat
	evals    []trace.Span
	fused    *trace.Span
	packs    []trace.Span
	joins    []trace.Span // fused_join kernels
	hostJoin []trace.Span
	children vtime.Duration
	joinRows vtime.Duration
	mon      map[string]bool
	tiles    error // tileOpsAt over the run's rows
}

func (r chargeRun) evalNames() []string {
	var names []string
	for _, sp := range r.evals {
		names = append(names, sp.Name)
	}
	return names
}

// joinCharged is the host join time the run was charged: its join rows
// plus what the group-by charged for joins that left the device.
func (r chargeRun) joinCharged() vtime.Duration {
	d := r.joinRows
	for _, sp := range r.hostJoin {
		d += sp.End.Sub(sp.Start)
	}
	return d
}

func runCharged(t *testing.T, e *Engine, sql string) chargeRun {
	t.Helper()
	tr := trace.New()
	e.SetTracer(tr)
	defer e.SetTracer(nil)
	e.clockMu.Lock()
	base := e.clock
	e.clockMu.Unlock()
	res, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	var run chargeRun
	run.tiles = tileOpsAt(res, base)
	for _, op := range res.Ops {
		switch op.Op {
		case "groupby":
			run.gb = op
		case "join":
			run.joinRows += op.Modeled
		}
	}
	for _, sp := range tr.QuerySpans(res.TraceSeq) {
		if sp.Parent == run.gb.Span {
			run.children += sp.End.Sub(sp.Start)
		}
		switch {
		case sp.Cat == "eval" && sp.Parent == run.gb.Span:
			run.evals = append(run.evals, sp)
		case sp.Name == "host-join" && sp.Parent == run.gb.Span:
			run.hostJoin = append(run.hostJoin, sp)
		case sp.Cat == "gpu" && sp.Name == "fused-chain":
			run.fused = &sp
		case sp.Name == "fused_pack":
			run.packs = append(run.packs, sp)
		case sp.Name == "fused_join":
			run.joins = append(run.joins, sp)
		}
	}
	run.mon = map[string]bool{}
	for _, ev := range e.Monitor().Evaluators() {
		run.mon[ev.Name] = true
	}
	return run
}

// TestFusedGroupByChargesNoHostLoad: a fused group-by is charged its
// device chain and never LCOV or MEMCPY — fused_pack loads and packs the
// payloads on the device — and its key evaluators go where its entry's
// columns are. One arm a path:
//
//   - resident: the entry is resident on the device the chain prefers, so
//     fused_pack builds the keys too and no LCOG, CCAT or HASH is charged;
//   - fill: the entry must fill, and the host key evaluators are charged
//     as the fill's overlap window;
//   - declined and faulted, from a resident entry and from one that fills:
//     the keys are charged exactly once before the staged or CPU path runs,
//     with LCOV and MEMCPY for the staged path and LCOV for the CPU one;
//   - NoFusion takes the staged path and keeps its whole chain, its
//     group-by row bit for bit as when every group-by was charged its
//     whole chain up front.
//
// In every arm the row's self time is what its spans hold plus the
// finalize: keys + chain + finalize.
func TestFusedGroupByChargesNoHostLoad(t *testing.T) {
	const sql = "SELECT s_month, SUM(s_qty) AS t, AVG(s_price) AS ap FROM sales GROUP BY s_month"
	keys := []string{"LCOG", "CCAT", "HASH"}
	m := vtime.Default()
	// 12 groups by two aggregates.
	finalize := m.CPUTime(12*2, m.CPUExprRate, 24)
	sums := func(t *testing.T, r chargeRun) {
		t.Helper()
		if want := r.children + finalize; math.Abs(float64(r.gb.Modeled-want)) > 1e-9*float64(want) {
			t.Errorf("group-by charged %v, want keys + chain + finalize = %v", r.gb.Modeled, want)
		}
		if r.tiles != nil {
			t.Error(r.tiles)
		}
	}
	evals := func(t *testing.T, r chargeRun, want ...string) {
		t.Helper()
		if got := r.evalNames(); !slices.Equal(got, want) {
			t.Errorf("eval spans %v, want %v", got, want)
		}
	}
	// keysAfter: a chain that left a resident entry is charged its keys
	// once it has left, after the fused-chain attempt.
	keysAfter := func(t *testing.T, r chargeRun) {
		t.Helper()
		if r.fused == nil || len(r.evals) == 0 || r.evals[0].Start.Before(r.fused.End) {
			t.Errorf("keys not charged after the fused-chain attempt: evals %v", r.evalNames())
		}
	}

	var fill, resident chargeRun
	t.Run("fill", func(t *testing.T) {
		e := newTestEngine(t, 120_000)
		fill = runCharged(t, e, sql)
		if !strings.HasPrefix(fill.gb.Detail, "gpu/fused/") || fill.fused == nil || fill.gb.Agg.DeviceKeys {
			t.Fatalf("group-by took %q (device keys %t), want the fused chain with host keys", fill.gb.Detail, fill.gb.Agg.DeviceKeys)
		}
		evals(t, fill, keys...)
		if fill.mon["LCOV"] || fill.mon["MEMCPY"] {
			t.Errorf("fused group-by recorded host loads with the monitor: %v", fill.mon)
		}
		// The key evaluators come first: their window is what the fills
		// overlap.
		if fill.evals[2].End != fill.fused.Start {
			t.Errorf("keys end at %v, chain starts at %v", fill.evals[2].End, fill.fused.Start)
		}
		sums(t, fill)

		resident = runCharged(t, e, sql)
		if !strings.HasPrefix(resident.gb.Detail, "gpu/fused/") || resident.fused == nil || !resident.gb.Agg.DeviceKeys {
			t.Fatalf("warm group-by took %q (device keys %t), want the fused chain with device keys", resident.gb.Detail, resident.gb.Agg.DeviceKeys)
		}
	})
	t.Run("resident", func(t *testing.T) {
		if resident.fused == nil {
			t.Skip("fill arm failed")
		}
		evals(t, resident)
		// fused_pack also reads the key column and hashes the row: two
		// more values a row at the device's scan rate.
		if len(fill.packs) != 1 || len(resident.packs) != 1 {
			t.Fatalf("fused_pack spans: fill %d, resident %d", len(fill.packs), len(resident.packs))
		}
		d := func(sp trace.Span) vtime.Duration { return sp.End.Sub(sp.Start) }
		extra := d(resident.packs[0]) - d(fill.packs[0])
		if want := vtime.Duration(120_000 * 2 / m.GPUScanRate); math.Abs(float64(extra-want)) > 1e-9*float64(want) {
			t.Errorf("fused_pack grew by %v for the keys, want %v", extra, want)
		}
		sums(t, resident)
	})

	t.Run("declined", func(t *testing.T) {
		// From a resident entry: with every device's memory held, the chain
		// and then the staged path find no room, and the CPU runs it.
		e := newTestEngine(t, 120_000)
		runCharged(t, e, sql)
		for _, d := range e.sched.Devices() {
			res, err := d.Reserve(d.FreeMemory())
			if err != nil {
				t.Fatal(err)
			}
			defer res.Release()
		}
		held := runCharged(t, e, sql)
		if held.gb.Agg.Fused || held.gb.Agg.FallbackCause == "" {
			t.Fatalf("group-by took %q (cause %q), want a declined chain and the CPU fallback", held.gb.Detail, held.gb.Agg.FallbackCause)
		}
		evals(t, held, append(keys, "LCOV", "MEMCPY")...)
		keysAfter(t, held)
		sums(t, held)

		// From an entry that fills: rolap-q36, first on a fresh engine,
		// declines its fused chain (cold cache), and the staged path runs.
		var q36 string
		for _, q := range workload.CognosROLAP() {
			if q.ID == "rolap-q36" {
				q36 = q.SQL
			}
		}
		cold := runCharged(t, newWorkloadEngine(t, 0.02), q36)
		if !strings.HasPrefix(cold.gb.Detail, "gpu/k") || cold.fused == nil {
			t.Fatalf("rolap-q36 took %q, want a declined fused chain and the staged path", cold.gb.Detail)
		}
		evals(t, cold, append(keys, "LCOV", "MEMCPY")...)
	})

	t.Run("faulted", func(t *testing.T) {
		// Every kernel faults: the fused chain spills at its first stage
		// and the query resumes on the CPU path, which reads LCOV.
		inj := fault.New(fault.Config{Seed: 20160626, Kernel: 1})
		filled := runCharged(t, newTestEngineWith(t, Config{Devices: 2, Degree: 24, Faults: inj}, 120_000), sql)
		if !strings.HasPrefix(filled.gb.Detail, "cpu") || filled.gb.Agg.FallbackCause == "" {
			t.Fatalf("faulted group-by took %q (cause %q), want the CPU fallback", filled.gb.Detail, filled.gb.Agg.FallbackCause)
		}
		evals(t, filled, append(keys, "LCOV")...)
		if !filled.mon["LCOV"] || filled.mon["MEMCPY"] {
			t.Errorf("faulted group-by's monitor evaluators %v, want LCOV and no MEMCPY", filled.mon)
		}
		sums(t, filled)

		// From a resident entry: both devices die after the first run.
		inj = fault.New(fault.Config{Seed: 20160626})
		e := newTestEngineWith(t, Config{Devices: 2, Degree: 24, Faults: inj}, 120_000)
		runCharged(t, e, sql)
		inj.KillDevice(0)
		inj.KillDevice(1)
		dead := runCharged(t, e, sql)
		if !strings.HasPrefix(dead.gb.Detail, "cpu") || !strings.Contains(dead.gb.Agg.FallbackCause, "injected") {
			t.Fatalf("group-by on dead devices took %q (cause %q), want the CPU fallback", dead.gb.Detail, dead.gb.Agg.FallbackCause)
		}
		evals(t, dead, append(keys, "LCOV")...)
		keysAfter(t, dead)
		sums(t, dead)
	})

	t.Run("nofusion", func(t *testing.T) {
		staged := runCharged(t, newTestEngineWith(t, Config{Devices: 2, Degree: 24, NoFusion: true}, 120_000), sql)
		evals(t, staged, "LCOG", "CCAT", "LCOV", "HASH", "MEMCPY")
		// The staged group-by's row, bit for bit as when the whole chain was
		// charged before the decision.
		gb := staged.gb
		if gb.Detail != "gpu/k2-shared" || math.Float64bits(float64(gb.Modeled)) != stagedGroupByModeled ||
			math.Float64bits(float64(gb.Start)) != stagedGroupByStart || math.Float64bits(float64(gb.End)) != stagedGroupByEnd {
			t.Errorf("NoFusion group-by row %q modeled %x start %x end %x moved", gb.Detail,
				math.Float64bits(float64(gb.Modeled)), math.Float64bits(float64(gb.Start)), math.Float64bits(float64(gb.End)))
		}
		sums(t, staged)
	})
}

// TestFusedJoinChargedOnce runs TestFusedGroupByChargesNoHostLoad's arms
// over a group-by on a join, whose fused chain spans the join. A chain
// whose join entry misses joins on the host, charged in the join's row,
// and uploads the join's output it reads, with the join entry's misses
// when the host join hides them; a resident one probes on the device, a
// fused_join kernel that looks every sales row up in the resident build
// table and gathers st_name, and the join's row is empty. A chain that
// leaves a resident entry — declined by a full device or the cold-cache
// policy on the other one, or faulted on dead devices — is charged the
// host join exactly once, in a host-join span after the attempt, with the
// keys. A chain whose join entry is resident but whose probe costs more
// than the host join runs the join on the host and pins the join's output
// once. In every arm the host join time charged is the join's, or none,
// the group-by's row is its spans plus the finalize, and the rows tile the
// query (tileOpsAt).
func TestFusedJoinChargedOnce(t *testing.T) {
	const sql = "SELECT st_name, SUM(s_qty) AS t, AVG(s_price) AS ap FROM sales JOIN stores ON s_store_sk = st_store_sk GROUP BY st_name"
	const rows = 120_000
	keys := []string{"LCOG", "CCAT", "HASH"}
	m := vtime.Default()
	// 10 groups by two aggregates.
	finalize := m.CPUTime(10*2, m.CPUExprRate, 24)
	check := func(t *testing.T, r chargeRun, joinT vtime.Duration, evals ...string) {
		t.Helper()
		if want := r.children + finalize; math.Abs(float64(r.gb.Modeled-want)) > 1e-9*float64(want) {
			t.Errorf("group-by charged %v, want its spans + finalize = %v", r.gb.Modeled, want)
		}
		if r.tiles != nil {
			t.Error(r.tiles)
		}
		if got := r.joinCharged(); math.Abs(float64(got-joinT)) > 1e-9*float64(joinT) {
			t.Errorf("host join charged %v, want %v", got, joinT)
		}
		if got := r.evalNames(); !slices.Equal(got, evals) {
			t.Errorf("eval spans %v, want %v", got, evals)
		}
	}
	// left: the chain left a resident entry; the join and the keys are
	// charged once, after the attempt, the join first.
	left := func(t *testing.T, r chargeRun) {
		t.Helper()
		if r.joinRows != 0 || len(r.hostJoin) != 1 {
			t.Fatalf("join rows charged %v, %d host-join spans; want 0 and one", r.joinRows, len(r.hostJoin))
		}
		if r.fused == nil || r.hostJoin[0].Start.Before(r.fused.End) || len(r.evals) == 0 || r.evals[0].Start.Before(r.hostJoin[0].End) {
			t.Errorf("the host join is not charged after the fused-chain attempt, before the keys: fused ends %v, join %v-%v, keys from %v",
				r.fused.End, r.hostJoin[0].Start, r.hostJoin[0].End, r.evals[0].Start)
		}
	}

	nofusion := runCharged(t, newTestEngineWith(t, Config{Devices: 2, Degree: 24, NoFusion: true}, rows), sql)
	joinT := nofusion.joinRows
	if joinT <= 0 || len(nofusion.hostJoin) != 0 {
		t.Fatalf("NoFusion join charged %v in its row, %d host-join spans", joinT, len(nofusion.hostJoin))
	}
	t.Run("nofusion", func(t *testing.T) {
		check(t, nofusion, joinT, "LCOG", "CCAT", "LCOV", "HASH", "MEMCPY")
	})

	var fill, resident chargeRun
	e := newTestEngine(t, rows)
	t.Run("fill", func(t *testing.T) {
		// Cold, the join entry's sales columns cost more to fill than the
		// host join hides, so the chain fills only the join's output:
		// st_name, s_qty and s_price.
		cold := runCharged(t, newTestEngine(t, rows), sql)
		if cold.gb.Agg.UploadBytes != 3*fusion.DeviceBytes(rows) || cold.gb.Agg.DeviceJoins != 0 {
			t.Errorf("cold chain uploaded %d bytes with %d device joins, want the host-join entry's %d and none",
				cold.gb.Agg.UploadBytes, cold.gb.Agg.DeviceJoins, 3*fusion.DeviceBytes(rows))
		}
		check(t, cold, joinT, keys...)

		warmFacts(t, e)
		before := e.fcache.Stats()
		fill = runCharged(t, e, sql)
		after := e.fcache.Stats()
		if !strings.HasPrefix(fill.gb.Detail, "gpu/fused/") || fill.gb.Agg.DeviceKeys || fill.gb.Agg.DeviceJoins != 0 {
			t.Fatalf("group-by took %q (device keys %t, device joins %d), want the fused chain with host keys and join",
				fill.gb.Detail, fill.gb.Agg.DeviceKeys, fill.gb.Agg.DeviceJoins)
		}
		if fill.gb.Agg.EstRows != rows || fill.gb.Agg.InputRows != rows {
			t.Errorf("decided on %d rows before the join, %d after; want %d", fill.gb.Agg.EstRows, fill.gb.Agg.InputRows, rows)
		}
		if fill.joinRows != joinT || len(fill.joins) != 0 {
			t.Errorf("join row charged %v with %d fused_join kernels, want %v on the host", fill.joinRows, len(fill.joins), joinT)
		}
		// The group-by reads what the host join produced, so that crosses
		// too: st_name through the join's list (s_qty and s_price, whose
		// rows the join kept in order, are the resident base columns),
		// beside the join entry's misses, the stores build table and
		// st_name.
		want := fusion.DeviceBytes(rows) + fusion.BuildKey(0, 10).Bytes() + fusion.DeviceBytes(10)
		if fill.gb.Agg.UploadBytes != want {
			t.Errorf("filling chain uploaded %d bytes, want the joins' output and the join entry's misses, %d", fill.gb.Agg.UploadBytes, want)
		}
		// Both entries hold s_qty and s_price: each key is pinned and
		// counted once, so the hits are the join entry's three resident
		// sales columns and the misses its build table, its st_name and the
		// join's st_name.
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 3 || misses != 3 {
			t.Errorf("filling chain counted %d hits and %d misses, want 3 and 3", hits, misses)
		}
		if fill.gb.Agg.SavedBytes != 3*fusion.DeviceBytes(rows) {
			t.Errorf("filling chain saved %d bytes, want the three resident sales columns' %d", fill.gb.Agg.SavedBytes, 3*fusion.DeviceBytes(rows))
		}
		check(t, fill, joinT, keys...)
	})
	t.Run("resident", func(t *testing.T) {
		resident = runCharged(t, e, sql)
		if !strings.HasPrefix(resident.gb.Detail, "gpu/fused/") || !resident.gb.Agg.DeviceKeys || resident.gb.Agg.DeviceJoins != 1 {
			t.Fatalf("warm group-by took %q (device keys %t, device joins %d), want the fused chain with device keys and join",
				resident.gb.Detail, resident.gb.Agg.DeviceKeys, resident.gb.Agg.DeviceJoins)
		}
		if len(resident.joins) != 1 {
			t.Fatalf("%d fused_join kernels, want 1", len(resident.joins))
		}
		// Every sales row is looked up (no predicate, so no range test),
		// and st_name is gathered for each.
		want := vtime.Duration(rows/m.GPUScanRate) + vtime.Duration(rows/m.GPUHashInsertRate) + m.GPUKernelLaunch
		if got := resident.joins[0].End.Sub(resident.joins[0].Start); math.Abs(float64(got-want)) > 1e-9*float64(want) {
			t.Errorf("fused_join took %v, want %v", got, want)
		}
		check(t, resident, 0)
	})
	t.Run("prefer-full", func(t *testing.T) {
		// Two stores of ten: the join keeps a fifth of the sales rows, so
		// the chain's input is far narrower than its join entry's sales
		// columns.
		const two = "SELECT st_name, SUM(s_qty) AS t, AVG(s_price) AS ap FROM sales JOIN stores ON s_store_sk = st_store_sk WHERE st_store_sk < 2 GROUP BY st_name"
		e := newTestEngine(t, 300_000)
		warmFacts(t, e)
		runCharged(t, e, two)
		if warm := runCharged(t, e, two); warm.gb.Agg.DeviceJoins != 1 || warm.gb.Agg.Devices[0] != 0 {
			t.Fatalf("warm group-by took %q on %v with %d device joins, want 1 on device 0", warm.gb.Detail, warm.gb.Agg.Devices, warm.gb.Agg.DeviceJoins)
		}
		// Device 0, where the join entry is resident, is now full: the
		// chain places on device 1, where the entry misses whole, and the
		// cold-cache policy weighs that fill there as it would for any
		// chain: more than fuseFactor times the input, so it declines and
		// the staged path runs, charged the host join once.
		dev0 := e.sched.Devices()[0]
		res, err := dev0.Reserve(dev0.FreeMemory())
		if err != nil {
			t.Fatal(err)
		}
		defer res.Release()
		moved := runCharged(t, e, two)
		if moved.gb.Agg.Fused || !strings.HasPrefix(moved.gb.Detail, "gpu/") || moved.fused == nil {
			t.Fatalf("group-by took %q (fused %t), want a declined chain and the staged path", moved.gb.Detail, moved.gb.Agg.Fused)
		}
		var decline string
		for _, a := range moved.fused.Attrs {
			if a.Key == "decline" {
				decline = a.Str
			}
		}
		if decline != "cold-cache" {
			t.Errorf("the chain on device 1 declined %q, want cold-cache", decline)
		}
		if len(moved.hostJoin) != 1 || moved.joinRows != 0 {
			t.Errorf("join rows charged %v, %d host-join spans; want 0 and one", moved.joinRows, len(moved.hostJoin))
		}
		if moved.tiles != nil {
			t.Error(moved.tiles)
		}
	})
	t.Run("resident-host-join", func(t *testing.T) {
		// A join entry can be resident while its probe costs more than the
		// host join: at 36 000 rows the probe's launch and its st_name
		// gather outweigh what it saves, while a chain reading no stores
		// column probes for less. Other chains fill the entry: the sales
		// group-by its fact columns, a group-by over stores st_name, and
		// the join of that cheaper probe, on its second run, the stores
		// build table. The join then runs on the host, charged once in its
		// row, and the chain pins the join's output it reads, each key once.
		const rows = 36_000
		th := optimizer.Thresholds{T1Rows: 1, T2Groups: 4, T3Rows: 1 << 40}
		joinT := runCharged(t, newTestEngineWith(t, Config{Devices: 2, Degree: 24, Thresholds: th, NoFusion: true}, rows), sql).joinRows
		e := newTestEngineWith(t, Config{Devices: 2, Degree: 24, Thresholds: th}, rows)
		warmFacts(t, e)
		runCharged(t, e, "SELECT st_name, COUNT(*) AS n FROM stores GROUP BY st_name")
		const cheaper = "SELECT s_month, SUM(s_qty) AS t FROM sales JOIN stores ON s_store_sk = st_store_sk GROUP BY s_month"
		runCharged(t, e, cheaper)
		runCharged(t, e, cheaper)
		sales, stores := e.tables["sales"], e.tables["stores"]
		join := []fusion.Key{
			fusion.ColumnKey(sales.Column("s_store_sk")), fusion.ColumnKey(sales.Column("s_qty")), fusion.ColumnKey(sales.Column("s_price")),
			fusion.BuildKey(stores.Column("st_store_sk").Key(), 10), fusion.ColumnKey(stores.Column("st_name")),
		}
		if miss := e.fcache.MissBytes(0, join); miss != 0 {
			t.Fatalf("the join entry misses %d bytes on device 0, want it resident", miss)
		}

		before := e.fcache.Stats()
		r := runCharged(t, e, sql)
		after := e.fcache.Stats()
		if !r.gb.Agg.Fused || r.gb.Agg.DeviceJoins != 0 || len(r.joins) != 0 {
			t.Fatalf("group-by took %q (fused %t) with %d device joins, want the fused chain and the host join", r.gb.Detail, r.gb.Agg.Fused, r.gb.Agg.DeviceJoins)
		}
		// The join's output: st_name through the join's list, which fills,
		// and the resident s_qty and s_price.
		if pins := (after.Hits - before.Hits) + (after.Misses - before.Misses); pins != 3 {
			t.Errorf("the chain pinned %d keys, want the join output's 3, each once", pins)
		}
		if r.gb.Agg.UploadBytes != fusion.DeviceBytes(rows) || r.gb.Agg.SavedBytes != 2*fusion.DeviceBytes(rows) {
			t.Errorf("the chain uploaded %d and saved %d bytes, want %d and %d",
				r.gb.Agg.UploadBytes, r.gb.Agg.SavedBytes, fusion.DeviceBytes(rows), 2*fusion.DeviceBytes(rows))
		}
		if len(r.hostJoin) != 0 || r.joinRows != joinT {
			t.Errorf("join charged %v in its row and %d host-join spans, want %v and none", r.joinRows, len(r.hostJoin), joinT)
		}
		check(t, r, joinT, keys...)
	})
	t.Run("declined", func(t *testing.T) {
		if resident.fused == nil {
			t.Skip("resident arm failed")
		}
		// With every device's memory held, the chain and then the staged
		// path find no room, and the CPU runs it.
		for _, d := range e.sched.Devices() {
			res, err := d.Reserve(d.FreeMemory())
			if err != nil {
				t.Fatal(err)
			}
			defer res.Release()
		}
		held := runCharged(t, e, sql)
		if held.gb.Agg.Fused || held.gb.Agg.FallbackCause == "" {
			t.Fatalf("group-by took %q (cause %q), want a declined chain and the CPU fallback", held.gb.Detail, held.gb.Agg.FallbackCause)
		}
		left(t, held)
		check(t, held, joinT, append(keys, "LCOV", "MEMCPY")...)
	})
	t.Run("faulted", func(t *testing.T) {
		// From a resident entry: both devices die after the first run.
		inj := fault.New(fault.Config{Seed: 20160626})
		e := newTestEngineWith(t, Config{Devices: 2, Degree: 24, Faults: inj}, rows)
		warmFacts(t, e)
		runCharged(t, e, sql)
		if warm := runCharged(t, e, sql); warm.gb.Agg.DeviceJoins != 1 {
			t.Fatalf("warm group-by took %q with %d device joins, want 1", warm.gb.Detail, warm.gb.Agg.DeviceJoins)
		}
		inj.KillDevice(0)
		inj.KillDevice(1)
		dead := runCharged(t, e, sql)
		if !strings.HasPrefix(dead.gb.Detail, "cpu") || !strings.Contains(dead.gb.Agg.FallbackCause, "injected") {
			t.Fatalf("group-by on dead devices took %q (cause %q), want the CPU fallback", dead.gb.Detail, dead.gb.Agg.FallbackCause)
		}
		left(t, dead)
		check(t, dead, joinT, append(keys, "LCOV")...)

		// From an entry that fills: every kernel faults, and the join was
		// charged in its row before the attempt. The fills stay, so the
		// next run's chain probes on the device, and its first kernel, the
		// fused_join, faults on both devices.
		inj = fault.New(fault.Config{Seed: 20160626, Kernel: 1})
		e = newTestEngineWith(t, Config{Devices: 2, Degree: 24, Faults: inj}, rows)
		warmFacts(t, e)
		filled := runCharged(t, e, sql)
		if !strings.HasPrefix(filled.gb.Detail, "cpu") || filled.joinRows != joinT {
			t.Fatalf("faulted group-by took %q with %v in its join row, want the CPU fallback and %v", filled.gb.Detail, filled.joinRows, joinT)
		}
		check(t, filled, joinT, append(keys, "LCOV")...)
		probed := runCharged(t, e, sql)
		if !strings.HasPrefix(probed.gb.Detail, "cpu") || probed.gb.Agg.Retries != 1 {
			t.Fatalf("group-by took %q after %d retries, want the CPU fallback after one", probed.gb.Detail, probed.gb.Agg.Retries)
		}
		left(t, probed)
		check(t, probed, joinT, append(keys, "LCOV")...)
	})
}

// TestPinPricesSharedKeysOnce: a chain that fills its join entry beside
// the host-join entry pins and prices a key both entries hold once, with
// the join entry. Here the join entry's fill, {shared, joinOnly}, runs past
// the host joins by half of shared's fill: filling both then costs that
// half and hostOnly, less than the host-join entry's {shared, hostOnly}
// alone, so the chain fills both, each key once. Priced twice, shared
// would make both cost more than the host-join entry alone.
func TestPinPricesSharedKeysOnce(t *testing.T) {
	e := newTestEngine(t, 1_000)
	dev := e.sched.Devices()[0]
	key := func(h uint64) fusion.Key { return fusion.Key{H: h, N: 10_000, T: columnar.Int64} }
	shared, joinOnly, hostOnly := key(1), key(2), key(3)
	ft := e.fcache.FillTime
	cr := &chainRec{
		join: []fusion.Key{shared, joinOnly}, entry: []fusion.Key{shared, hostOnly},
		prefer: dev, miss: shared.Bytes() + joinOnly.Bytes(), probeT: 1, joinT: 2,
	}
	at := ft(joinOnly) + ft(shared)/2
	e.pin(cr, nil, at, &groupby.Input{NumRows: 100_000, KeyBits: 16}, 0)
	want := []fill{{[]fusion.Key{shared, joinOnly}, at}, {keys: []fusion.Key{hostOnly}}}
	if !reflect.DeepEqual(cr.fills, want) || cr.prefer != dev {
		t.Errorf("pinned %v on device %d, want %v on device 0", cr.fills, cr.prefer.ID(), want)
	}
}

// warmFacts runs a group-by over the sales columns TestFusedJoinChargedOnce's
// chain reads, which fill as its entry: the join's chain then misses only
// the stores build table and st_name, a fill the host join hides.
func warmFacts(t *testing.T, e *Engine) {
	t.Helper()
	runCharged(t, e, "SELECT s_store_sk, SUM(s_qty) AS t, AVG(s_price) AS ap FROM sales GROUP BY s_store_sk")
	sales := e.tables["sales"]
	var keys []fusion.Key
	for _, c := range []string{"s_store_sk", "s_qty", "s_price"} {
		keys = append(keys, fusion.ColumnKey(sales.Column(c)))
	}
	if e.fcache.MissBytes(0, keys) != 0 {
		t.Fatal("the sales group-by left its columns missing on device 0")
	}
}

// The NoFusion group-by row of TestFusedGroupByChargesNoHostLoad's
// statement, as float bits: modeled self time, start and end.
const (
	stagedGroupByModeled = 0x3f3d1e4d9acdec2a
	stagedGroupByStart   = 0x3ef7d4ce4a19b16e
	stagedGroupByEnd     = 0x3f3e9b9a7f6f8741
)
