package workload

import (
	"fmt"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/des"
	"blugpu/internal/engine"
	"blugpu/internal/vtime"
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	return Generate(0.003, 42)
}

func TestGenerateShapes(t *testing.T) {
	d := smallDataset(t)
	if len(d.Tables) != 24 {
		t.Fatalf("tables = %d, want 24 (7 facts + 17 dims)", len(d.Tables))
	}
	for _, n := range append(FactNames(), DimensionNames()...) {
		tbl := d.Table(n)
		if tbl == nil {
			t.Fatalf("missing table %s", n)
		}
		if tbl.Rows() == 0 {
			t.Errorf("table %s is empty", n)
		}
	}
	ss := d.Table("store_sales")
	if ss.Rows() != SizesFor(0.003).StoreSales {
		t.Errorf("store_sales rows = %d", ss.Rows())
	}
	// Foreign keys must be within dimension ranges.
	storeCol := ss.Column("ss_store_sk").(*columnar.Int64Column)
	for i := 0; i < ss.Rows(); i++ {
		if sk := storeCol.Int64(i); sk < 0 || sk >= int64(d.Sizes.Store) {
			t.Fatalf("ss_store_sk out of range: %d", sk)
		}
	}
	if d.TotalBytes() <= 0 {
		t.Error("TotalBytes should be positive")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.001, 7)
	b := Generate(0.001, 7)
	ta := a.Table("store_sales").Column("ss_net_paid").(*columnar.Float64Column)
	tb := b.Table("store_sales").Column("ss_net_paid").(*columnar.Float64Column)
	for i := 0; i < ta.Len(); i++ {
		if ta.Float64(i) != tb.Float64(i) {
			t.Fatalf("same seed diverged at row %d", i)
		}
	}
	c := Generate(0.001, 8)
	tc := c.Table("store_sales").Column("ss_net_paid").(*columnar.Float64Column)
	same := true
	for i := 0; i < ta.Len() && i < 100; i++ {
		if ta.Float64(i) != tc.Float64(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different data")
	}
}

func TestQuerySetShapes(t *testing.T) {
	bd := BDInsights()
	if len(bd) != 100 {
		t.Fatalf("BD Insights = %d queries, want 100", len(bd))
	}
	if n := len(Filter(bd, Simple)); n != 70 {
		t.Errorf("simple = %d, want 70", n)
	}
	if n := len(Filter(bd, Intermediate)); n != 25 {
		t.Errorf("intermediate = %d, want 25", n)
	}
	if n := len(Filter(bd, Complex)); n != 5 {
		t.Errorf("complex = %d, want 5", n)
	}
	rolap := CognosROLAP()
	if len(rolap) != 46 {
		t.Fatalf("ROLAP = %d queries, want 46", len(rolap))
	}
	heavy := 0
	for _, q := range rolap {
		if q.MemoryHeavy {
			heavy++
		}
	}
	if heavy != 12 {
		t.Errorf("memory-heavy ROLAP queries = %d, want 12", heavy)
	}
	// IDs unique.
	seen := map[string]bool{}
	for _, q := range append(bd, rolap...) {
		if seen[q.ID] {
			t.Errorf("duplicate query id %s", q.ID)
		}
		seen[q.ID] = true
	}
}

func TestThreadGroups(t *testing.T) {
	groups := MixedThreadGroups()
	if len(groups) != 5 {
		t.Fatalf("thread groups = %d, want 5", len(groups))
	}
	users := 0
	for _, g := range groups {
		users += g.Threads
		if len(g.Queries) == 0 {
			t.Errorf("group %s has no queries", g.Name)
		}
	}
	if users != 10 {
		t.Errorf("total users = %d, want 10", users)
	}
}

// TestAllQueriesExecute is the workload's functional gate: every BD
// Insights and ROLAP query must parse, plan and run on the engine.
func TestAllQueriesExecute(t *testing.T) {
	d := smallDataset(t)
	e, err := engine.New(engine.Config{Devices: 2, Degree: 24})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterAll(e); err != nil {
		t.Fatal(err)
	}
	all := append(BDInsights(), CognosROLAP()...)
	for _, g := range MixedThreadGroups() {
		all = append(all, g.Queries...)
	}
	for _, q := range all {
		res, err := e.Query(q.SQL)
		if err != nil {
			t.Errorf("%s failed: %v\nSQL: %s", q.ID, err, q.SQL)
			continue
		}
		if res.Modeled <= 0 {
			t.Errorf("%s: no modeled time", q.ID)
		}
	}
}

func TestRegisterAllDuplicate(t *testing.T) {
	d := smallDataset(t)
	e, _ := engine.New(engine.Config{})
	if err := d.RegisterAll(e); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterAll(e); err == nil {
		t.Error("double registration should fail")
	}
}

func TestRNGDistribution(t *testing.T) {
	r := newRNG(1)
	counts := make([]int, 10)
	for i := 0; i < 100_000; i++ {
		counts[r.intn(10)]++
	}
	for b, c := range counts {
		if c < 8500 || c > 11500 {
			t.Errorf("bucket %d = %d, want ~10000", b, c)
		}
	}
	// zipfish concentrates on low indices.
	z := newRNG(2)
	low := 0
	for i := 0; i < 10_000; i++ {
		if z.zipfish(1000) < 250 {
			low++
		}
	}
	if low < 4000 {
		t.Errorf("zipfish low-quartile share = %d/10000, want skewed", low)
	}
}

func TestMultiUserStreams(t *testing.T) {
	mix := DefaultUserMix()
	if mix.Users() != 10 {
		t.Fatalf("default users = %d, want 10", mix.Users())
	}
	streams := BDInsightsStreams(mix)
	if len(streams) != 10 {
		t.Fatalf("streams = %d", len(streams))
	}
	// First seven streams are simple-class, then two intermediate, one complex.
	for i, s := range streams {
		var want Class
		switch {
		case i < 7:
			want = Simple
		case i < 9:
			want = Intermediate
		default:
			want = Complex
		}
		if len(s) == 0 {
			t.Fatalf("stream %d empty", i)
		}
		for _, q := range s {
			if q.Class != want {
				t.Fatalf("stream %d has %s query %s, want %s", i, q.Class, q.ID, want)
			}
		}
	}
	// Users of the same class should not start on the same query.
	if streams[0][0].ID == streams[1][0].ID {
		t.Error("same-class users should be offset")
	}
	// Zero QueriesPerUser takes the whole class.
	full := BDInsightsStreams(UserMix{Complex: 1})
	if len(full[0]) != 5 {
		t.Errorf("full complex pass = %d queries, want 5", len(full[0]))
	}
}

func TestMultiUserConcurrentExecution(t *testing.T) {
	d := smallDataset(t)
	e, err := engine.New(engine.Config{Devices: 2, Degree: 24})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterAll(e); err != nil {
		t.Fatal(err)
	}
	mix := UserMix{Simple: 3, Intermediate: 2, Complex: 1, QueriesPerUser: 2}
	// Each distinct statement runs once for its resource profile; the
	// streams then replay through the discrete-event simulator.
	profiles := map[string]des.Profile{}
	var streams [][]des.Profile
	for _, qs := range BDInsightsStreams(mix) {
		var s []des.Profile
		for _, q := range qs {
			p, seen := profiles[q.ID]
			if !seen {
				res, err := e.Query(q.SQL)
				if err != nil {
					t.Fatalf("%s: %v", q.ID, err)
				}
				p = res.Profile
				profiles[q.ID] = p
			}
			s = append(s, p)
		}
		streams = append(streams, s)
	}
	cfg := des.Config{CPUCapacity: vtime.PowerS824().EffectiveParallelism(96)}
	for _, d := range e.Devices() {
		cfg.Devices = append(cfg.Devices, des.DeviceSpec{Mem: d.TotalMemory()})
	}
	res, err := des.Run(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != mix.Users()*2 {
		t.Errorf("simulated queries = %d, want %d", len(res.Queries), mix.Users()*2)
	}
	if res.Makespan <= 0 {
		t.Error("makespan missing")
	}
}

func TestStreamsZeroUserClasses(t *testing.T) {
	// A mix with empty classes still yields exactly one stream per user,
	// all of the populated class.
	streams := BDInsightsStreams(UserMix{Intermediate: 4, QueriesPerUser: 2})
	if len(streams) != 4 {
		t.Fatalf("streams = %d, want 4", len(streams))
	}
	for i, s := range streams {
		if len(s) != 2 {
			t.Fatalf("stream %d has %d queries, want 2", i, len(s))
		}
		for _, q := range s {
			if q.Class != Intermediate {
				t.Fatalf("stream %d carries %s query %s", i, q.Class, q.ID)
			}
		}
	}
	if got := BDInsightsStreams(UserMix{}); len(got) != 0 {
		t.Fatalf("empty mix produced %d streams", len(got))
	}
}

func TestStreamsQueriesPerUserClamped(t *testing.T) {
	pool := Filter(BDInsights(), Complex)
	// Asking for more queries than the class pool clamps to one full pass
	// instead of repeating statements within a stream.
	streams := BDInsightsStreams(UserMix{Complex: 2, QueriesPerUser: len(pool) * 10})
	for i, s := range streams {
		if len(s) != len(pool) {
			t.Fatalf("stream %d = %d queries, want clamp to pool size %d", i, len(s), len(pool))
		}
		seen := map[string]bool{}
		for _, q := range s {
			if seen[q.ID] {
				t.Fatalf("stream %d repeats %s after clamping", i, q.ID)
			}
			seen[q.ID] = true
		}
	}
}

func TestStreamsNoLockStep(t *testing.T) {
	// Any two same-class users closer together than the pool size must
	// open with different statements — including pool sizes divisible by
	// the offset stride, where the old fixed stride collided.
	for _, poolLen := range []int{3, 5, 6, 9, 10} {
		pool := make([]Query, poolLen)
		for i := range pool {
			pool[i] = Query{ID: fmt.Sprintf("q%d", i), Class: Simple, SQL: "SELECT 1"}
		}
		streams := buildStreams([]classUsers{{count: poolLen, pool: pool}}, 1)
		starts := map[string]int{}
		for u, s := range streams {
			if prev, dup := starts[s[0].ID]; dup {
				t.Fatalf("pool %d: users %d and %d lock-step on %s", poolLen, prev, u, s[0].ID)
			}
			starts[s[0].ID] = u
		}
	}
}

func TestStreamsEmptyPoolSafe(t *testing.T) {
	// An empty class pool must not panic on the modulo; users of that
	// class get empty streams so stream count still matches user count.
	streams := buildStreams([]classUsers{
		{count: 3, pool: nil},
		{count: 1, pool: []Query{{ID: "only", Class: Simple, SQL: "SELECT 1"}}},
	}, 2)
	if len(streams) != 4 {
		t.Fatalf("streams = %d, want 4", len(streams))
	}
	for i := 0; i < 3; i++ {
		if len(streams[i]) != 0 {
			t.Fatalf("empty-pool stream %d has %d queries", i, len(streams[i]))
		}
	}
	if len(streams[3]) != 1 || streams[3][0].ID != "only" {
		t.Fatalf("populated stream wrong: %+v", streams[3])
	}
}
