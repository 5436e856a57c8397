package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/optimizer"
)

// newTestEngine builds an engine with 2 GPUs and a small sales schema.
func newTestEngine(t *testing.T, rows int) *Engine {
	t.Helper()
	e, err := New(Config{Devices: 2, Degree: 24})
	if err != nil {
		t.Fatal(err)
	}
	// Fact table: sales.
	sk := columnar.NewInt64Builder("s_store_sk")
	month := columnar.NewInt64Builder("s_month")
	qty := columnar.NewInt64Builder("s_qty")
	price := columnar.NewFloat64Builder("s_price")
	for i := 0; i < rows; i++ {
		sk.Append(int64(i % 10))
		month.Append(int64(i%12 + 1))
		if i%20 == 19 {
			qty.AppendNull()
		} else {
			qty.Append(int64(i%7 + 1))
		}
		price.Append(float64(i%100) + 0.5)
	}
	sales := columnar.MustNewTable("sales", sk.Build(), month.Build(), qty.Build(), price.Build())
	if err := e.Register(sales); err != nil {
		t.Fatal(err)
	}
	// Dimension table: stores.
	dk := columnar.NewInt64Builder("st_store_sk")
	name := columnar.NewStringBuilder("st_name")
	region := columnar.NewStringBuilder("st_region")
	regions := []string{"east", "west"}
	for i := 0; i < 10; i++ {
		dk.Append(int64(i))
		name.Append(fmt.Sprintf("store-%d", i))
		region.Append(regions[i%2])
	}
	stores := columnar.MustNewTable("stores", dk.Build(), name.Build(), region.Build())
	if err := e.Register(stores); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRegisterValidation(t *testing.T) {
	e, _ := New(Config{})
	if err := e.Register(nil); err == nil {
		t.Error("nil table should error")
	}
	b := columnar.NewInt64Builder("x")
	b.Append(1)
	tbl := columnar.MustNewTable("t", b.Build())
	if err := e.Register(tbl); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(tbl); err == nil {
		t.Error("duplicate registration should error")
	}
	if e.Table("t") == nil || e.Stats("t") == nil {
		t.Error("table and stats should be registered")
	}
}

func TestSelectStarLimit(t *testing.T) {
	e := newTestEngine(t, 100)
	res, err := e.Query("SELECT * FROM sales LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Rows() != 7 || res.Table.NumColumns() != 4 {
		t.Errorf("result %dx%d", res.Table.Rows(), res.Table.NumColumns())
	}
	if res.Modeled <= 0 {
		t.Error("modeled time missing")
	}
}

func TestFilterQuery(t *testing.T) {
	e := newTestEngine(t, 120)
	res, err := e.Query("SELECT s_month FROM sales WHERE s_month = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Rows() != 10 { // 120 rows, 12 months
		t.Errorf("rows = %d, want 10", res.Table.Rows())
	}
	col := res.Table.Column("s_month").(*columnar.Int64Column)
	for i := 0; i < col.Len(); i++ {
		if col.Int64(i) != 3 {
			t.Fatalf("row %d = %d, want 3", i, col.Int64(i))
		}
	}
}

func TestGroupByCPUPath(t *testing.T) {
	// Small row count stays under T1: CPU path.
	e := newTestEngine(t, 1200)
	res, err := e.Query("SELECT s_month, SUM(s_qty) AS total, COUNT(*) AS cnt FROM sales GROUP BY s_month")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Rows() != 12 {
		t.Fatalf("groups = %d, want 12", res.Table.Rows())
	}
	if res.GPUUsed {
		t.Error("1200 rows must stay on the CPU (T1)")
	}
	// Verify against a reference computation.
	sales := e.Table("sales")
	wantSum := map[int64]int64{}
	wantCnt := map[int64]int64{}
	m := sales.Column("s_month").(*columnar.Int64Column)
	q := sales.Column("s_qty").(*columnar.Int64Column)
	for i := 0; i < sales.Rows(); i++ {
		wantCnt[m.Int64(i)]++
		if !q.IsNull(i) {
			wantSum[m.Int64(i)] += q.Int64(i)
		}
	}
	gm := res.Table.Column("s_month").(*columnar.Int64Column)
	gt := res.Table.Column("total").(*columnar.Int64Column)
	gc := res.Table.Column("cnt").(*columnar.Int64Column)
	for g := 0; g < res.Table.Rows(); g++ {
		mo := gm.Int64(g)
		if gt.Int64(g) != wantSum[mo] {
			t.Errorf("month %d: total = %d, want %d", mo, gt.Int64(g), wantSum[mo])
		}
		if gc.Int64(g) != wantCnt[mo] {
			t.Errorf("month %d: cnt = %d, want %d", mo, gc.Int64(g), wantCnt[mo])
		}
	}
}

func TestGroupByGPUPath(t *testing.T) {
	// 120k rows with 12x10 groups clears T1/T2: GPU path.
	e := newTestEngine(t, 120_000)
	res, err := e.Query("SELECT s_month, s_store_sk, SUM(s_qty) AS total FROM sales GROUP BY s_month, s_store_sk")
	if err != nil {
		t.Fatal(err)
	}
	if !res.GPUUsed {
		t.Error("120k-row group-by should offload")
	}
	if res.Table.Rows() != 60 {
		t.Errorf("groups = %d, want 60 (lcm of 12 months x 10 stores)", res.Table.Rows())
	}
	var gpuOp *OpStat
	for i := range res.Ops {
		if res.Ops[i].Op == "groupby" {
			gpuOp = &res.Ops[i]
		}
	}
	if gpuOp == nil || !strings.HasPrefix(gpuOp.Detail, "gpu/") {
		t.Errorf("groupby op = %+v", gpuOp)
	}
	// GPU-on and GPU-off agree.
	e.SetGPUEnabled(false)
	base, err := e.Query("SELECT s_month, s_store_sk, SUM(s_qty) AS total FROM sales GROUP BY s_month, s_store_sk")
	if err != nil {
		t.Fatal(err)
	}
	if base.GPUUsed {
		t.Error("disabled GPU must not be used")
	}
	if !sameGroups(t, res.Table, base.Table, []string{"s_month", "s_store_sk"}, "total") {
		t.Error("GPU and CPU paths disagree")
	}
}

// sameGroups compares two grouped results independent of row order.
func sameGroups(t *testing.T, a, b *columnar.Table, keys []string, agg string) bool {
	t.Helper()
	index := func(tbl *columnar.Table) map[string]string {
		out := map[string]string{}
		for r := 0; r < tbl.Rows(); r++ {
			var k, v strings.Builder
			for _, kc := range keys {
				fmt.Fprintf(&k, "%v|", tbl.Column(kc).Value(r))
			}
			fmt.Fprintf(&v, "%v", tbl.Column(agg).Value(r))
			out[k.String()] = v.String()
		}
		return out
	}
	ia, ib := index(a), index(b)
	if len(ia) != len(ib) {
		return false
	}
	for k, v := range ia {
		if ib[k] != v {
			return false
		}
	}
	return true
}

func TestJoinGroupBySort(t *testing.T) {
	e := newTestEngine(t, 2400)
	res, err := e.Query(`SELECT st_region, SUM(s_qty) AS total, AVG(s_price) AS avgp
		FROM sales JOIN stores ON s_store_sk = st_store_sk
		GROUP BY st_region ORDER BY total DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Rows() != 2 {
		t.Fatalf("regions = %d, want 2", res.Table.Rows())
	}
	tot := res.Table.Column("total").(*columnar.Int64Column)
	if tot.Int64(0) < tot.Int64(1) {
		t.Error("ORDER BY total DESC violated")
	}
	avgp := res.Table.Column("avgp").(*columnar.Float64Column)
	for i := 0; i < 2; i++ {
		if avgp.Float64(i) <= 0 || math.IsNaN(avgp.Float64(i)) {
			t.Errorf("avgp[%d] = %v", i, avgp.Float64(i))
		}
	}
}

func TestHavingFilter(t *testing.T) {
	e := newTestEngine(t, 1200)
	all, err := e.Query("SELECT s_month, COUNT(*) AS cnt FROM sales GROUP BY s_month")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT s_month, COUNT(*) AS cnt FROM sales GROUP BY s_month HAVING cnt > 1000")
	if err != nil {
		t.Fatal(err)
	}
	if all.Table.Rows() != 12 || res.Table.Rows() != 0 {
		t.Errorf("having filter: %d -> %d rows", all.Table.Rows(), res.Table.Rows())
	}
}

func TestAvgMatchesSumOverCount(t *testing.T) {
	e := newTestEngine(t, 600)
	res, err := e.Query(`SELECT s_month, SUM(s_price) AS sp, COUNT(s_price) AS cp, AVG(s_price) AS ap
		FROM sales GROUP BY s_month`)
	if err != nil {
		t.Fatal(err)
	}
	sp := res.Table.Column("sp").(*columnar.Float64Column)
	cp := res.Table.Column("cp").(*columnar.Int64Column)
	ap := res.Table.Column("ap").(*columnar.Float64Column)
	for g := 0; g < res.Table.Rows(); g++ {
		want := sp.Float64(g) / float64(cp.Int64(g))
		if math.Abs(ap.Float64(g)-want) > 1e-9 {
			t.Errorf("group %d: avg = %v, want %v", g, ap.Float64(g), want)
		}
	}
}

func TestOrderByStringAndLimit(t *testing.T) {
	e := newTestEngine(t, 200)
	res, err := e.Query(`SELECT st_name, st_region FROM stores ORDER BY st_region, st_name DESC LIMIT 4`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Rows() != 4 {
		t.Fatalf("rows = %d", res.Table.Rows())
	}
	rg := res.Table.Column("st_region").(*columnar.StringColumn)
	nm := res.Table.Column("st_name").(*columnar.StringColumn)
	for i := 1; i < 4; i++ {
		a, b := rg.Value(i-1).S, rg.Value(i).S
		if a > b {
			t.Errorf("region order broken: %s > %s", a, b)
		}
		if a == b && nm.Value(i-1).S < nm.Value(i).S {
			t.Errorf("name DESC broken within region")
		}
	}
}

func TestRankWindow(t *testing.T) {
	e := newTestEngine(t, 1200)
	res, err := e.Query(`SELECT s_month, SUM(s_qty) AS total,
		RANK() OVER (ORDER BY total DESC) AS rnk
		FROM sales GROUP BY s_month ORDER BY rnk`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Rows() != 12 {
		t.Fatalf("rows = %d", res.Table.Rows())
	}
	rnk := res.Table.Column("rnk").(*columnar.Int64Column)
	tot := res.Table.Column("total").(*columnar.Int64Column)
	if rnk.Int64(0) != 1 {
		t.Errorf("first rank = %d, want 1", rnk.Int64(0))
	}
	for i := 1; i < 12; i++ {
		if tot.Int64(i) > tot.Int64(i-1) {
			t.Error("rank order violates total DESC")
		}
		if rnk.Int64(i) < rnk.Int64(i-1) {
			t.Error("ranks must be non-decreasing in rank order")
		}
		if tot.Int64(i) == tot.Int64(i-1) && rnk.Int64(i) != rnk.Int64(i-1) {
			t.Error("ties must share rank")
		}
	}
}

func TestArithmeticProjection(t *testing.T) {
	e := newTestEngine(t, 60)
	res, err := e.Query("SELECT s_qty * 2 + 1 AS z FROM sales WHERE s_qty = 3 LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	z := res.Table.Column("z").(*columnar.Int64Column)
	if z.Int64(0) != 7 {
		t.Errorf("3*2+1 = %d", z.Int64(0))
	}
}

func TestAggregateOverExpression(t *testing.T) {
	e := newTestEngine(t, 240)
	res, err := e.Query("SELECT s_month, SUM(s_qty * 10) AS t10, SUM(s_qty) AS t1 FROM sales GROUP BY s_month")
	if err != nil {
		t.Fatal(err)
	}
	t10 := res.Table.Column("t10").(*columnar.Int64Column)
	t1 := res.Table.Column("t1").(*columnar.Int64Column)
	for g := 0; g < res.Table.Rows(); g++ {
		if t10.Int64(g) != 10*t1.Int64(g) {
			t.Errorf("group %d: %d != 10*%d", g, t10.Int64(g), t1.Int64(g))
		}
	}
}

func TestUnknownTableAndColumns(t *testing.T) {
	e := newTestEngine(t, 10)
	if _, err := e.Query("SELECT x FROM nope"); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := e.Query("SELECT nope FROM sales"); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := e.Query("SELECT s_qty FROM sales JOIN stores ON s_store_sk = missing_col"); err == nil {
		t.Error("bad join column should error")
	}
}

func TestProfilePhases(t *testing.T) {
	e := newTestEngine(t, 120_000)
	res, err := e.Query("SELECT s_month, s_store_sk, SUM(s_qty) AS t FROM sales GROUP BY s_month, s_store_sk")
	if err != nil {
		t.Fatal(err)
	}
	var hasCPU, hasGPU bool
	for _, p := range res.Profile.Phases {
		switch p.Kind {
		case 0:
			hasCPU = true
		case 1:
			hasGPU = true
			if p.Mem <= 0 {
				t.Error("GPU phase must hold memory")
			}
		}
	}
	if !hasCPU || !hasGPU {
		t.Errorf("profile should mix CPU and GPU phases: %+v", res.Profile.Phases)
	}
	// Profile serial time roughly matches modeled time.
	if math.Abs(res.Profile.SerialSeconds()-res.Modeled.Seconds()) > res.Modeled.Seconds()*0.25+1e-6 {
		t.Errorf("profile serial %.6f vs modeled %.6f", res.Profile.SerialSeconds(), res.Modeled.Seconds())
	}
}

func TestGPUOffloadFasterOnBigGroupBy(t *testing.T) {
	e := newTestEngine(t, 400_000)
	sql := "SELECT s_month, s_store_sk, SUM(s_qty) AS t, MIN(s_price) AS mn, MAX(s_price) AS mx FROM sales GROUP BY s_month, s_store_sk"
	gpuRes, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	e.SetGPUEnabled(false)
	cpuRes, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	e.SetGPUEnabled(true)
	if !gpuRes.GPUUsed || cpuRes.GPUUsed {
		t.Fatal("offload toggling broken")
	}
	if gpuRes.Modeled >= cpuRes.Modeled {
		t.Errorf("GPU-on (%v) should beat GPU-off (%v) on a 400k-row group-by", gpuRes.Modeled, cpuRes.Modeled)
	}
}

func TestSmallQueryPrefersCPUEvenWithGPU(t *testing.T) {
	e := newTestEngine(t, 5000)
	res, err := e.Query("SELECT s_month, COUNT(*) AS c FROM sales GROUP BY s_month")
	if err != nil {
		t.Fatal(err)
	}
	if res.GPUUsed {
		t.Error("small query should stay on CPU per Figure 3")
	}
}

func TestThresholdOverride(t *testing.T) {
	// Force everything to the GPU with tiny thresholds.
	e, err := New(Config{Devices: 1, Degree: 8, Thresholds: optimizer.Thresholds{
		T1Rows: 1, T2Groups: 0, T3Rows: 1 << 40,
	}})
	if err != nil {
		t.Fatal(err)
	}
	b := columnar.NewInt64Builder("k")
	v := columnar.NewInt64Builder("v")
	for i := 0; i < 500; i++ {
		b.Append(int64(i % 25))
		v.Append(int64(i))
	}
	if err := e.Register(columnar.MustNewTable("t", b.Build(), v.Build())); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT k, SUM(v) AS s FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	if !res.GPUUsed {
		t.Error("T1=1 should force the GPU path")
	}
	if res.Table.Rows() != 25 {
		t.Errorf("groups = %d", res.Table.Rows())
	}
}

// TestAliasedProjectionSharesVectors: `col AS alias` is a rename, not a
// copy — the output column's backing array is the source's.
func TestAliasedProjectionSharesVectors(t *testing.T) {
	e := newTestEngine(t, 5_000)
	res, err := e.Query("SELECT s_qty AS q, s_price AS p, s_month FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	src := e.Table("sales")
	q, qty := res.Table.Column("q").(*columnar.Int64Column), src.Column("s_qty").(*columnar.Int64Column)
	p, price := res.Table.Column("p").(*columnar.Float64Column), src.Column("s_price").(*columnar.Float64Column)
	if &q.Data()[0] != &qty.Data()[0] || &p.Data()[0] != &price.Data()[0] {
		t.Error("aliased projection copied its column instead of sharing the backing array")
	}
	if q.Name() != "q" || q.Nulls() != qty.Nulls() || q.ContentHash() != qty.ContentHash() {
		t.Errorf("renamed column %q must keep the source's nulls and content hash", q.Name())
	}
	for i := 0; i < src.Rows(); i++ {
		if !q.Value(i).Equal(qty.Value(i)) || !p.Value(i).Equal(price.Value(i)) {
			t.Fatalf("row %d: (%v, %v), want (%v, %v)", i, q.Value(i), p.Value(i), qty.Value(i), price.Value(i))
		}
	}
}
