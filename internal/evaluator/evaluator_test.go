package evaluator

import (
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/gpu"
	"blugpu/internal/groupby"
	"blugpu/internal/hostmem"
	"blugpu/internal/monitor"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// salesTable: 1000 rows, month in 1..12, region in 4 values, qty ints,
// price floats, some NULL qty rows.
func salesTable(t *testing.T) *columnar.Table {
	t.Helper()
	month := columnar.NewInt64Builder("month")
	region := columnar.NewStringBuilder("region")
	qty := columnar.NewInt64Builder("qty")
	price := columnar.NewFloat64Builder("price")
	regions := []string{"east", "west", "north", "south"}
	for i := 0; i < 1000; i++ {
		month.Append(int64(i%12 + 1))
		region.Append(regions[(i/12)%4])
		if i%10 == 9 {
			qty.AppendNull()
		} else {
			qty.Append(int64(i % 50))
		}
		price.Append(float64(i%30) + 0.25)
	}
	return columnar.MustNewTable("sales", month.Build(), region.Build(), qty.Build(), price.Build())
}

func deps() Deps {
	return Deps{Model: vtime.Default(), Degree: 4}
}

func TestBuildInputNarrow(t *testing.T) {
	tbl := salesTable(t)
	spec := Spec{
		Keys: []string{"month", "region"},
		Aggs: []AggColumn{
			{Kind: groupby.Sum, Column: "qty"},
			{Kind: groupby.Count},
			{Kind: groupby.Min, Column: "price"},
		},
	}
	res, err := BuildInput(columnar.TableRows{Table: tbl}, spec, deps())
	if err != nil {
		t.Fatal(err)
	}
	in := res.Input
	if in.Wide() {
		t.Fatal("12 months x 4 regions should pack narrow")
	}
	if in.NumRows != 1000 || len(in.Keys) != 1000 {
		t.Fatalf("rows = %d", in.NumRows)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// 48 distinct (month, region) combinations.
	if in.EstGroups != 48 {
		t.Errorf("estimated groups = %d, want 48 (below KMV k is exact)", in.EstGroups)
	}
	if Charge(nil, trace.Context{}, 0, res.Chain()...) <= 0 {
		t.Error("chain must model host time")
	}
	// Run the CPU kernel over it and decode a group key.
	out, err := groupby.RunCPU(in, 4, vtime.Default())
	if err != nil {
		t.Fatal(err)
	}
	if out.Groups != 48 {
		t.Fatalf("groups = %d, want 48", out.Groups)
	}
	foundJan := false
	for g := 0; g < out.Groups; g++ {
		mv := DecodeKey(out.Keys[g], res.Fields[0])
		rv := DecodeKey(out.Keys[g], res.Fields[1])
		if mv.Null || rv.Null {
			t.Fatal("no NULL keys expected")
		}
		if mv.I == 1 && rv.S == "east" {
			foundJan = true
		}
		if mv.I < 1 || mv.I > 12 {
			t.Fatalf("decoded month %d out of range", mv.I)
		}
	}
	if !foundJan {
		t.Error("missing (1, east) group")
	}
}

func TestCountColumnSkipsNulls(t *testing.T) {
	tbl := salesTable(t)
	spec := Spec{
		Keys: []string{"region"},
		Aggs: []AggColumn{{Kind: groupby.Count, Column: "qty"}, {Kind: groupby.Count}},
	}
	res, err := BuildInput(columnar.TableRows{Table: tbl}, spec, deps())
	if err != nil {
		t.Fatal(err)
	}
	// COUNT(qty) is rewritten to SUM of 0/1.
	if res.Input.Aggs[0].Kind != groupby.Sum {
		t.Errorf("COUNT(col) should become SUM, got %v", res.Input.Aggs[0].Kind)
	}
	out, err := groupby.RunCPU(res.Input, 2, vtime.Default())
	if err != nil {
		t.Fatal(err)
	}
	var countQty, countStar int64
	for g := 0; g < out.Groups; g++ {
		countQty += int64(out.AggWords[0][g])
		countStar += int64(out.AggWords[1][g])
	}
	if countStar != 1000 {
		t.Errorf("COUNT(*) total = %d, want 1000", countStar)
	}
	if countQty != 900 {
		t.Errorf("COUNT(qty) total = %d, want 900 (100 NULLs skipped)", countQty)
	}
}

func TestSelectedRows(t *testing.T) {
	tbl := salesTable(t)
	rows := make([]int32, 100)
	for i := range rows {
		rows[i] = int32(i)
	}
	res, err := BuildInput(columnar.TableRows{Table: tbl, Rows: rows}, Spec{Keys: []string{"month"}, Aggs: []AggColumn{{Kind: groupby.Count}}}, deps())
	if err != nil {
		t.Fatal(err)
	}
	if res.Input.NumRows != 100 {
		t.Errorf("selected rows = %d, want 100", res.Input.NumRows)
	}
}

func TestNullGroupingKey(t *testing.T) {
	b := columnar.NewInt64Builder("k")
	v := columnar.NewInt64Builder("v")
	b.Append(5)
	b.AppendNull()
	b.Append(5)
	b.AppendNull()
	for i := 0; i < 4; i++ {
		v.Append(int64(i))
	}
	tbl := columnar.MustNewTable("t", b.Build(), v.Build())
	res, err := BuildInput(columnar.TableRows{Table: tbl}, Spec{Keys: []string{"k"}, Aggs: []AggColumn{{Kind: groupby.Sum, Column: "v"}}}, deps())
	if err != nil {
		t.Fatal(err)
	}
	out, err := groupby.RunCPU(res.Input, 1, vtime.Default())
	if err != nil {
		t.Fatal(err)
	}
	if out.Groups != 2 {
		t.Fatalf("groups = %d, want 2 (5 and NULL)", out.Groups)
	}
	var gotNull, got5 bool
	for g := 0; g < out.Groups; g++ {
		kv := DecodeKey(out.Keys[g], res.Fields[0])
		if kv.Null {
			gotNull = true
			if int64(out.AggWords[0][g]) != 1+3 {
				t.Errorf("NULL group sum = %d, want 4", int64(out.AggWords[0][g]))
			}
		} else if kv.I == 5 {
			got5 = true
			if int64(out.AggWords[0][g]) != 0+2 {
				t.Errorf("group 5 sum = %d, want 2", int64(out.AggWords[0][g]))
			}
		}
	}
	if !gotNull || !got5 {
		t.Error("expected NULL group and value-5 group")
	}
}

func TestWidePathManyColumns(t *testing.T) {
	// Keys spanning > 63 bits force the wide (CCAT) path: three int
	// columns with huge ranges.
	a := columnar.NewInt64Builder("a")
	b := columnar.NewInt64Builder("b")
	c := columnar.NewInt64Builder("c")
	v := columnar.NewInt64Builder("v")
	for i := 0; i < 500; i++ {
		a.Append(int64(i%7) * 1e15)
		b.Append(int64(i%5) * 1e15)
		c.Append(int64(i%3) * 1e15)
		v.Append(1)
	}
	tbl := columnar.MustNewTable("t", a.Build(), b.Build(), c.Build(), v.Build())
	res, err := BuildInput(columnar.TableRows{Table: tbl}, Spec{Keys: []string{"a", "b", "c"}, Aggs: []AggColumn{{Kind: groupby.Sum, Column: "v"}}}, deps())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Input.Wide() {
		t.Fatal("three 1e15-range keys must take the wide path")
	}
	if err := res.Input.Validate(); err != nil {
		t.Fatal(err)
	}
	out, err := groupby.RunCPU(res.Input, 2, vtime.Default())
	if err != nil {
		t.Fatal(err)
	}
	if out.Groups != 7*5*3 {
		t.Fatalf("groups = %d, want 105", out.Groups)
	}
	// Decode one wide key and verify values are multiples of 1e15.
	kv := DecodeWideKey(rowBytes(out.Keys, res.Input.KeyWords(), 0), res.Fields[0])
	if kv.I%1e15 != 0 {
		t.Errorf("decoded a = %d, want multiple of 1e15", kv.I)
	}
	// Total count preserved.
	var total int64
	for g := 0; g < out.Groups; g++ {
		total += int64(out.AggWords[0][g])
	}
	if total != 500 {
		t.Errorf("sum over groups = %d, want 500", total)
	}
}

func TestPinnedStaging(t *testing.T) {
	tbl := salesTable(t)
	reg, _ := hostmem.NewRegistry(1 << 20)
	mon := monitor.New()
	d := Deps{Model: vtime.Default(), Degree: 2, Registry: reg, Stage: true}
	res, err := BuildInput(columnar.TableRows{Table: tbl}, Spec{Keys: []string{"month"}, Aggs: []AggColumn{{Kind: groupby.Count}}}, d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pinned || res.Staged == nil {
		t.Fatal("staging should land in the registered segment")
	}
	if reg.InUse() == 0 {
		t.Error("registry should show the staged block")
	}
	res.Staged.Release()
	if reg.InUse() != 0 {
		t.Error("release should empty the registry")
	}
	// The monitor sees what is charged: the staged chain's keys and loads.
	Charge(mon, trace.Context{}, 0, append(res.Keys(), res.Loads()...)...)
	names := map[string]bool{}
	for _, e := range mon.Evaluators() {
		names[e.Name] = true
	}
	for _, want := range []string{"LCOG", "CCAT", "LCOV", "HASH", "MEMCPY"} {
		if !names[want] {
			t.Errorf("monitor missing evaluator %s", want)
		}
	}
}

func TestStagingFallsBackWhenExhausted(t *testing.T) {
	tbl := salesTable(t)
	reg, _ := hostmem.NewRegistry(64) // far too small
	d := Deps{Model: vtime.Default(), Degree: 2, Registry: reg, Stage: true}
	res, err := BuildInput(columnar.TableRows{Table: tbl}, Spec{Keys: []string{"month"}, Aggs: []AggColumn{{Kind: groupby.Count}}}, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pinned || res.Staged != nil {
		t.Error("exhausted registry must fall back to unpinned")
	}
}

func TestErrors(t *testing.T) {
	tbl := salesTable(t)
	if _, err := BuildInput(columnar.TableRows{Table: tbl}, Spec{Keys: []string{"nope"}, Aggs: nil}, deps()); err == nil {
		t.Error("unknown key column should error")
	}
	if _, err := BuildInput(columnar.TableRows{Table: tbl}, Spec{Keys: nil}, deps()); err == nil {
		t.Error("empty keys should error")
	}
	if _, err := BuildInput(columnar.TableRows{Table: tbl}, Spec{Keys: []string{"month"}, Aggs: []AggColumn{{Kind: groupby.Sum, Column: "nope"}}}, deps()); err == nil {
		t.Error("unknown aggregate column should error")
	}
	if _, err := BuildInput(columnar.TableRows{Table: tbl}, Spec{Keys: []string{"month"}, Aggs: []AggColumn{{Kind: groupby.Sum, Column: "region"}}}, deps()); err == nil {
		t.Error("SUM over string should error")
	}
	if _, err := BuildInput(columnar.TableRows{Table: tbl}, Spec{Keys: []string{"month"}}, Deps{}); err == nil {
		t.Error("missing model should error")
	}
}

func TestGPUPathEndToEnd(t *testing.T) {
	tbl := salesTable(t)
	spec := Spec{
		Keys: []string{"month"},
		Aggs: []AggColumn{{Kind: groupby.Sum, Column: "qty"}, {Kind: groupby.Max, Column: "price"}},
	}
	res, err := BuildInput(columnar.TableRows{Table: tbl}, spec, deps())
	if err != nil {
		t.Fatal(err)
	}
	cpuOut, err := groupby.RunCPU(res.Input, 4, vtime.Default())
	if err != nil {
		t.Fatal(err)
	}
	dev := newDevice()
	reservation, err := dev.Reserve(groupby.MemoryDemand(res.Input))
	if err != nil {
		t.Fatal(err)
	}
	defer reservation.Release()
	gpuOut, err := groupby.RunGPU(res.Input, 1, reservation, vtime.Default(), groupby.GPUOptions{Pinned: res.Pinned})
	if err != nil {
		t.Fatal(err)
	}
	if cpuOut.Groups != gpuOut.Groups {
		t.Fatalf("cpu %d groups vs gpu %d", cpuOut.Groups, gpuOut.Groups)
	}
	// Compare totals.
	sumOf := func(r *groupby.Result, a int) (tot int64) {
		for g := 0; g < r.Groups; g++ {
			tot += int64(r.AggWords[a][g])
		}
		return
	}
	if sumOf(cpuOut, 0) != sumOf(gpuOut, 0) {
		t.Error("SUM(qty) differs between CPU and GPU paths")
	}
}

func newDevice() *gpu.Device { return gpu.NewDevice(0, vtime.TeslaK40()) }
