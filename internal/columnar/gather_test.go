package columnar

import "testing"

func gatherFixture(t *testing.T) *Table {
	t.Helper()
	ints := NewInt64Builder("i")
	floats := NewFloat64Builder("f")
	strs := NewStringBuilder("s")
	vals := []struct {
		i       int64
		f       float64
		s       string
		nullRow bool
	}{
		{1, 1.5, "a", false},
		{2, 2.5, "b", true},
		{3, 3.5, "c", false},
		{4, 4.5, "a", false},
		{5, 5.5, "b", true},
	}
	for _, v := range vals {
		if v.nullRow {
			ints.AppendNull()
			floats.AppendNull()
			strs.AppendNull()
		} else {
			ints.Append(v.i)
			floats.Append(v.f)
			strs.Append(v.s)
		}
	}
	return MustNewTable("g", ints.Build(), floats.Build(), strs.Build())
}

func TestGatherInt64(t *testing.T) {
	tbl := gatherFixture(t)
	col := tbl.Column("i").(*Int64Column)
	out := col.Gather("picked", []int32{3, 0, 1})
	if out.Name() != "picked" || out.Len() != 3 {
		t.Fatalf("gathered: %s/%d", out.Name(), out.Len())
	}
	if out.Int64(0) != 4 || out.Int64(1) != 1 {
		t.Errorf("values = %d, %d", out.Int64(0), out.Int64(1))
	}
	if !out.IsNull(2) || out.IsNull(0) {
		t.Error("null tracking lost in gather")
	}
}

func TestGatherFloat64(t *testing.T) {
	tbl := gatherFixture(t)
	col := tbl.Column("f").(*Float64Column)
	out := col.Gather("f2", []int32{2, 4})
	if out.Float64(0) != 3.5 {
		t.Errorf("f[0] = %v", out.Float64(0))
	}
	if !out.IsNull(1) {
		t.Error("row 4 should stay NULL")
	}
	if len(out.Data()) != 2 {
		t.Error("Data() length wrong")
	}
}

func TestGatherStringSharesDict(t *testing.T) {
	tbl := gatherFixture(t)
	col := tbl.Column("s").(*StringColumn)
	out := col.Gather("s2", []int32{0, 3, 1})
	if out.DictSize() != col.DictSize() {
		t.Error("gather should share the dictionary")
	}
	if out.Value(0).S != "a" || out.Value(1).S != "a" {
		t.Errorf("values = %v, %v", out.Value(0), out.Value(1))
	}
	if out.Code(0) != out.Code(1) {
		t.Error("equal strings must share codes after gather")
	}
	if !out.IsNull(2) {
		t.Error("null lost")
	}
	if len(out.Codes()) != 3 {
		t.Error("Codes() length wrong")
	}
}

func TestGatherColumnDispatch(t *testing.T) {
	tbl := gatherFixture(t)
	rows := []int32{0, 2}
	for _, name := range []string{"i", "f", "s"} {
		out := GatherColumn(tbl.Column(name), name+"_g", rows)
		if out.Len() != 2 || out.Name() != name+"_g" {
			t.Errorf("%s: len=%d name=%s", name, out.Len(), out.Name())
		}
		if !out.Value(0).Equal(tbl.Column(name).Value(0)) {
			t.Errorf("%s: value mismatch after gather", name)
		}
	}
}

func TestGatherTable(t *testing.T) {
	tbl := gatherFixture(t)
	out := GatherTable("sub", tbl, []int32{4, 2, 0})
	if out.Name() != "sub" || out.Rows() != 3 || out.NumColumns() != 3 {
		t.Fatalf("table = %s %dx%d", out.Name(), out.Rows(), out.NumColumns())
	}
	// Row 0 of the gathered table is source row 4.
	row := out.Row(0)
	if !row[0].Null || !row[1].Null || !row[2].Null {
		t.Errorf("row 4 should be all NULL, got %v", row)
	}
	if out.Row(2)[0].I != 1 {
		t.Errorf("row order wrong: %v", out.Row(2))
	}
	// Empty gather.
	empty := GatherTable("empty", tbl, nil)
	if empty.Rows() != 0 {
		t.Errorf("empty gather rows = %d", empty.Rows())
	}
}

func TestTableAccessors(t *testing.T) {
	tbl := gatherFixture(t)
	if tbl.Name() != "g" {
		t.Error("Name wrong")
	}
	if !tbl.HasColumn("i") || tbl.HasColumn("missing") {
		t.Error("HasColumn wrong")
	}
	if len(tbl.Columns()) != 3 {
		t.Error("Columns wrong")
	}
	if Int64.String() != "int64" || Float64.String() != "float64" || String.String() != "string" {
		t.Error("type strings wrong")
	}
	if Type(99).String() == "" || Type(99).Width() != 8 {
		t.Error("unknown type fallbacks wrong")
	}
	if NullValue(String).String() != "NULL" || StringValue("x").String() != "x" {
		t.Error("value strings wrong")
	}
	if FloatValue(1.5).String() != "1.5" {
		t.Errorf("float string = %s", FloatValue(1.5).String())
	}
}

func TestDirectConstructors(t *testing.T) {
	nulls := NewBitmap(2)
	nulls.Set(1)
	ic := NewInt64Column("ic", []int64{7, 0}, nulls)
	if ic.Int64(0) != 7 || !ic.IsNull(1) {
		t.Error("NewInt64Column wrong")
	}
	fc := NewFloat64Column("fc", []float64{2.5, 0}, nil)
	if fc.Float64(0) != 2.5 || fc.IsNull(1) {
		t.Error("NewFloat64Column wrong")
	}
	if len(ic.Data()) != 2 {
		t.Error("Data accessor wrong")
	}
}

// TestComposeRows: a list read at a selection's places is the selection
// of the list, at every degree; a nil list is every row, so the
// composition is the selection itself.
func TestComposeRows(t *testing.T) {
	list := make([]int32, 10_000)
	for i := range list {
		list[i] = int32(len(list) - 1 - i)
	}
	var sel []int32
	for i := 0; i < len(list); i += 3 {
		sel = append(sel, int32(i))
	}
	for _, degree := range []int{1, 2, 8} {
		got := ComposeRows(list, sel, degree)
		for i, s := range sel {
			if got[i] != list[s] {
				t.Fatalf("degree %d: place %d is %d, want %d", degree, i, got[i], list[s])
			}
		}
		if len(got) != len(sel) {
			t.Fatalf("degree %d: %d rows, want %d", degree, len(got), len(sel))
		}
		if id := ComposeRows(nil, sel, degree); &id[0] != &sel[0] {
			t.Fatalf("degree %d: composing with every row copied the selection", degree)
		}
	}
}
