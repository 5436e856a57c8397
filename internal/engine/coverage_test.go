package engine

import (
	"strings"
	"sync"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/vtime"
)

func TestEngineAccessors(t *testing.T) {
	e := newTestEngine(t, 50)
	names := e.TableNames()
	if len(names) != 2 {
		t.Errorf("tables = %v", names)
	}
	if e.Monitor() == nil {
		t.Error("Monitor missing")
	}
	if len(e.Devices()) != 2 || e.Scheduler() == nil {
		t.Error("device plumbing missing")
	}
	// CPU-only engine has no scheduler.
	cpu, _ := New(Config{})
	if cpu.Scheduler() != nil || len(cpu.Devices()) != 0 || cpu.GPUEnabled() {
		t.Error("CPU-only engine should expose no devices")
	}
	cpu.SetGPUEnabled(true) // no-op without devices
	if cpu.GPUEnabled() {
		t.Error("enabling GPU without devices must stay off")
	}
}

func TestQueryParseAndPlanErrors(t *testing.T) {
	e := newTestEngine(t, 10)
	if _, err := e.Query("NOT SQL AT ALL"); err == nil {
		t.Error("parse errors should surface")
	}
	if _, err := e.Query("SELECT s_qty, SUM(s_qty) FROM sales"); err == nil {
		t.Error("plan errors should surface")
	}
}

func TestStringProjectionAndRename(t *testing.T) {
	e := newTestEngine(t, 50)
	// Project a string column under an alias: exercises Column.Rename.
	res, err := e.Query("SELECT st_name AS store_name, st_region FROM stores LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "store_name" {
		t.Errorf("columns = %v", res.Columns)
	}
	col := res.Table.Column("store_name")
	if col == nil || col.Type() != columnar.String {
		t.Error("renamed string column missing")
	}
}

func TestComputedStringColumnPath(t *testing.T) {
	// expr.EvalColumn's string branch: a string literal projection.
	e := newTestEngine(t, 10)
	res, err := e.Query("SELECT 'fixed' AS tag, s_qty FROM sales LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Column("tag").Value(0).S != "fixed" {
		t.Error("string literal projection broken")
	}
}

func TestComputedFloatColumn(t *testing.T) {
	e := newTestEngine(t, 10)
	res, err := e.Query("SELECT s_price * 2.0 AS dbl FROM sales LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	c := res.Table.Column("dbl").(*columnar.Float64Column)
	base := e.Table("sales").Column("s_price").(*columnar.Float64Column)
	for i := 0; i < 3; i++ {
		if c.Float64(i) != base.Float64(i)*2 {
			t.Errorf("dbl[%d] = %v", i, c.Float64(i))
		}
	}
}

func TestSortUnknownColumn(t *testing.T) {
	e := newTestEngine(t, 10)
	if _, err := e.Query("SELECT s_qty FROM sales ORDER BY s_qty, s_missing"); err == nil {
		t.Error("unknown sort column should error")
	}
}

func TestWindowWithPartition(t *testing.T) {
	e := newTestEngine(t, 600)
	res, err := e.Query(`SELECT s_store_sk, s_month, SUM(s_qty) AS total,
		RANK() OVER (PARTITION BY s_store_sk ORDER BY total DESC) AS rnk
		FROM sales GROUP BY s_store_sk, s_month ORDER BY s_store_sk, rnk`)
	if err != nil {
		t.Fatal(err)
	}
	store := res.Table.Column("s_store_sk").(*columnar.Int64Column)
	rnk := res.Table.Column("rnk").(*columnar.Int64Column)
	tot := res.Table.Column("total").(*columnar.Int64Column)
	for i := 0; i < res.Table.Rows(); i++ {
		if i == 0 || store.Int64(i) != store.Int64(i-1) {
			if rnk.Int64(i) != 1 {
				t.Fatalf("partition start rank = %d at row %d", rnk.Int64(i), i)
			}
			continue
		}
		if tot.Int64(i) > tot.Int64(i-1) {
			t.Fatalf("rank order violated inside partition at row %d", i)
		}
	}
}

func TestLimitLargerThanResult(t *testing.T) {
	e := newTestEngine(t, 5)
	res, err := e.Query("SELECT s_qty FROM sales LIMIT 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Rows() != 5 {
		t.Errorf("rows = %d, want all 5", res.Table.Rows())
	}
}

func TestBusyFleetFallsBackToCPU(t *testing.T) {
	// Fill both devices; the aggregate must fall back to the CPU rather
	// than fail.
	e := newTestEngine(t, 120_000)
	r0, err := e.Devices()[0].Reserve(e.Devices()[0].TotalMemory())
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Release()
	r1, err := e.Devices()[1].Reserve(e.Devices()[1].TotalMemory())
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Release()
	res, err := e.Query("SELECT s_month, s_store_sk, SUM(s_qty) AS t FROM sales GROUP BY s_month, s_store_sk")
	if err != nil {
		t.Fatal(err)
	}
	if res.GPUUsed {
		t.Error("busy fleet must force the CPU path")
	}
	var reason string
	for _, op := range res.Ops {
		if op.Op == "groupby" {
			reason = op.Detail
		}
	}
	if !strings.HasPrefix(reason, "cpu") {
		t.Errorf("groupby detail = %q", reason)
	}
}

func TestRaceConfigEndToEnd(t *testing.T) {
	e, err := New(Config{Devices: 1, Degree: 8, Race: true})
	if err != nil {
		t.Fatal(err)
	}
	k := columnar.NewInt64Builder("k")
	v := columnar.NewInt64Builder("v")
	for i := 0; i < 120_000; i++ {
		k.Append(int64(i % 12))
		v.Append(int64(i % 7))
	}
	if err := e.Register(columnar.MustNewTable("t", k.Build(), v.Build())); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT k, SUM(v) AS s FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	if !res.GPUUsed || res.Table.Rows() != 12 {
		t.Errorf("raced query: gpu=%v rows=%d", res.GPUUsed, res.Table.Rows())
	}
}

func TestMergePhases(t *testing.T) {
	e := newTestEngine(t, 120_000)
	res, err := e.Query("SELECT s_month, s_store_sk, SUM(s_qty) AS t FROM sales GROUP BY s_month, s_store_sk")
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent CPU phases must be coalesced: no two consecutive CPU
	// phases with the same parallelism cap.
	ph := res.Profile.Phases
	for i := 1; i < len(ph); i++ {
		if ph[i].Kind == ph[i-1].Kind && ph[i].Kind == 0 && ph[i].MaxPar == ph[i-1].MaxPar {
			t.Fatalf("unmerged CPU phases at %d: %+v", i, ph)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.Degree != 24 {
		t.Errorf("defaults: %+v", e.cfg)
	}
	if e.model == nil {
		t.Error("model missing")
	}
	if e.maxDeviceMem() != 0 {
		t.Error("no devices -> zero device memory")
	}
	_ = vtime.Default()
}

// TestDevicePeakFromEngine: a device group-by's reservation shows in
// the device's own high-water mark, the one peak the metrics expose.
func TestDevicePeakFromEngine(t *testing.T) {
	e := newTestEngine(t, 120_000)
	if _, err := e.Query("SELECT s_month, s_store_sk, SUM(s_qty) AS t FROM sales GROUP BY s_month, s_store_sk"); err != nil {
		t.Fatal(err)
	}
	var peak int64
	for _, d := range e.Devices() {
		u := d.Util()
		if u.ReservedPeakBytes < u.ReservedBytes {
			t.Errorf("%s: peak %d below occupancy %d", d, u.ReservedPeakBytes, u.ReservedBytes)
		}
		peak = max(peak, u.ReservedPeakBytes)
	}
	if peak <= 0 {
		t.Fatal("engine GPU run should raise a device's reservation peak")
	}
}

func TestExplain(t *testing.T) {
	e := newTestEngine(t, 120_000)
	out, err := e.Explain("SELECT s_month, SUM(s_qty) AS t FROM sales GROUP BY s_month ORDER BY t DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan:", "aggregate", "groupby keys=[s_month]", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	// The 12-group estimate should keep this query GPU-eligible.
	if !strings.Contains(out, "gpu") && !strings.Contains(out, "cpu") {
		t.Errorf("explain should state a path:\n%s", out)
	}
	if _, err := e.Explain("NOT SQL"); err == nil {
		t.Error("explain should surface parse errors")
	}
	if _, err := e.Explain("SELECT x FROM sales GROUP BY"); err == nil {
		t.Error("explain should surface plan errors")
	}
}

func TestConcurrentQueriesSafe(t *testing.T) {
	// Multiple goroutines may issue queries against one engine (the
	// monitor, registry and devices are internally synchronized); only
	// SetGPUEnabled must not race with queries.
	e := newTestEngine(t, 60_000)
	queries := []string{
		"SELECT s_month, SUM(s_qty) AS t FROM sales GROUP BY s_month",
		"SELECT s_store_sk, COUNT(*) AS c FROM sales GROUP BY s_store_sk ORDER BY c DESC",
		"SELECT s_qty, s_price FROM sales WHERE s_qty > 3 LIMIT 50",
		"SELECT st_region, AVG(s_price) AS ap FROM sales JOIN stores ON s_store_sk = st_store_sk GROUP BY st_region",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := e.Query(queries[(g+i)%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
