package optimizer

import (
	"testing"

	"blugpu/internal/columnar"
)

func statsTable(t *testing.T) *columnar.Table {
	t.Helper()
	id := columnar.NewInt64Builder("id")
	month := columnar.NewInt64Builder("month")
	price := columnar.NewFloat64Builder("price")
	state := columnar.NewStringBuilder("state")
	states := []string{"NY", "CA", "TX", "WA"}
	for i := 0; i < 10_000; i++ {
		id.Append(int64(i))
		month.Append(int64(i%12 + 1))
		if i%100 == 0 {
			price.AppendNull()
		} else {
			price.Append(float64(i%500) / 10)
		}
		state.Append(states[i%len(states)])
	}
	return columnar.MustNewTable("sales", id.Build(), month.Build(), price.Build(), state.Build())
}

func TestAnalyze(t *testing.T) {
	ts := Analyze(statsTable(t))
	if ts.Rows != 10_000 {
		t.Fatalf("rows = %d", ts.Rows)
	}
	if got := ts.Columns["month"]; got.NDV != 12 || got.MinI != 1 || got.MaxI != 12 {
		t.Errorf("month stats = %+v", got)
	}
	if got := ts.Columns["state"]; got.NDV != 4 {
		t.Errorf("state NDV = %d, want 4 (dictionary exact)", got.NDV)
	}
	if got := ts.Columns["price"]; got.Nulls != 100 {
		t.Errorf("price nulls = %d, want 100", got.Nulls)
	}
	// id is unique: NDV should be within KMV error of 10k.
	idNDV := float64(ts.Columns["id"].NDV)
	if idNDV < 8500 || idNDV > 11500 {
		t.Errorf("id NDV = %v, want ~10000", idNDV)
	}
}

func TestEstimateGroups(t *testing.T) {
	ts := Analyze(statsTable(t))
	col := func(names ...string) []*ColumnStats {
		out := make([]*ColumnStats, len(names))
		for i, n := range names {
			out[i] = ts.Columns[n]
		}
		return out
	}
	if g := EstimateGroups(col("month"), 10_000); g != 12 {
		t.Errorf("groups(month) = %d, want 12", g)
	}
	// Product of NDVs: 12 * 4 = 48.
	if g := EstimateGroups(col("month", "state"), 10_000); g != 48 {
		t.Errorf("groups(month,state) = %d, want 48", g)
	}
	// Capped by row count.
	if g := EstimateGroups(col("id", "month"), 10_000); g != 10_000 {
		t.Errorf("groups(id,month) = %d, want cap 10000", g)
	}
	if g := EstimateGroups(col("month", "state"), 40); g != 40 {
		t.Errorf("groups(month,state) over 40 rows = %d, want cap 40", g)
	}
	// A key no statistics describe falls back to sqrt.
	if g := EstimateGroups(col("nope"), 10_000); g != 100 {
		t.Errorf("groups(unknown) = %d, want 100", g)
	}
	if g := EstimateGroups(col("month"), 0); g != 0 {
		t.Errorf("zero rows should estimate 0 groups, got %d", g)
	}
}

// TestKeyBits: a key's width is its dictionary's or its value range's,
// one more code for a NULL, and a float or derived key is 64 bits.
func TestKeyBits(t *testing.T) {
	cases := []struct {
		cols []*ColumnStats
		want int
	}{
		{[]*ColumnStats{{Type: columnar.Int64, MinI: 1, MaxI: 12}}, 4},
		{[]*ColumnStats{{Type: columnar.Int64, MinI: 5, MaxI: 5}}, 1},
		{[]*ColumnStats{{Type: columnar.Int64, MinI: 0, MaxI: 15, Nulls: 1}}, 5},
		{[]*ColumnStats{{Type: columnar.String, NDV: 4}}, 2},
		{[]*ColumnStats{{Type: columnar.String, NDV: 4, Nulls: 3}}, 3},
		{[]*ColumnStats{{Type: columnar.String, NDV: 4}, {Type: columnar.Int64, MinI: 1, MaxI: 12}}, 6},
		{[]*ColumnStats{{Type: columnar.Float64}}, 64},
		{[]*ColumnStats{nil, {Type: columnar.String, NDV: 2}}, 65},
	}
	for i, c := range cases {
		if got := KeyBits(c.cols); got != c.want {
			t.Errorf("case %d: KeyBits = %d, want %d", i, got, c.want)
		}
	}
}

func TestDecideFigure3(t *testing.T) {
	th := DefaultThresholds()
	const devMem = 12 << 30
	cases := []struct {
		name   string
		est    Estimate
		want   Decision
		reason Reason
	}{
		{"small rows -> cpu", Estimate{Rows: 10_000, Groups: 1000, MemoryDemand: 1 << 20}, UseCPU, ReasonSmallRows},
		{"small groups -> cpu", Estimate{Rows: 1_000_000, Groups: 2, MemoryDemand: 1 << 20}, UseCPU, ReasonSmallGroups},
		{"eligible -> gpu", Estimate{Rows: 1_000_000, Groups: 500, MemoryDemand: 1 << 24}, UseGPU, ReasonEligible},
		{"huge rows -> cpu", Estimate{Rows: 500_000_000, Groups: 500, MemoryDemand: 1 << 24}, UseCPU, ReasonTooManyRows},
		{"memory bound -> cpu", Estimate{Rows: 1_000_000, Groups: 500, MemoryDemand: 20 << 30}, UseCPU, ReasonMemory},
	}
	for _, c := range cases {
		got, reason := Decide(c.est, th, devMem)
		if got != c.want || reason != c.reason {
			t.Errorf("%s: got (%v, %v), want (%v, %v)", c.name, got, reason, c.want, c.reason)
		}
	}
	// No device at all.
	if d, r := Decide(Estimate{Rows: 1 << 30}, th, 0); d != UseCPU || r != ReasonNoDevice {
		t.Errorf("no device: (%v, %v)", d, r)
	}
	// The 12-group birth-month example must stay GPU-eligible (T2 < 12).
	if d, _ := Decide(Estimate{Rows: 1_000_000, Groups: 12, MemoryDemand: 1 << 24}, th, devMem); d != UseGPU {
		t.Error("12-group large query should be GPU-eligible (kernel 2 territory)")
	}
}

func TestReasonStrings(t *testing.T) {
	for r := ReasonEligible; r <= ReasonNoDevice; r++ {
		if r.String() == "unknown" {
			t.Errorf("reason %d has no string", r)
		}
	}
	if UseCPU.String() != "cpu" || UseGPU.String() != "gpu" {
		t.Error("decision strings wrong")
	}
}
