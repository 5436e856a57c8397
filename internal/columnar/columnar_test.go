package columnar

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatalf("fresh bitmap: len=%d count=%d", b.Len(), b.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	if b.Count() != 4 {
		t.Errorf("count = %d, want 4", b.Count())
	}
	if !b.Get(64) || b.Get(65) {
		t.Error("Get misreads bits")
	}
}

func TestBitmapForEachAndIndices(t *testing.T) {
	b := NewBitmap(100)
	want := []int32{3, 64, 65, 99}
	for _, i := range want {
		b.Set(int(i))
	}
	got := b.Indices()
	if len(got) != len(want) {
		t.Fatalf("indices = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("indices[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBitmapCountProperty(t *testing.T) {
	f := func(idx []uint16) bool {
		b := NewBitmap(1 << 16)
		seen := map[uint16]bool{}
		for _, i := range idx {
			b.Set(int(i))
			seen[i] = true
		}
		return b.Count() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInt64Column(t *testing.T) {
	b := NewInt64Builder("qty")
	b.Append(10)
	b.AppendNull()
	b.Append(-3)
	col := b.Build()
	if col.Name() != "qty" || col.Type() != Int64 || col.Len() != 3 {
		t.Fatalf("metadata wrong: %s %v %d", col.Name(), col.Type(), col.Len())
	}
	if col.IsNull(0) || !col.IsNull(1) || col.IsNull(2) {
		t.Error("null tracking wrong")
	}
	if col.Int64(2) != -3 {
		t.Errorf("Int64(2) = %d", col.Int64(2))
	}
	if !col.Value(1).Null {
		t.Error("Value(1) should be NULL")
	}
}

func TestFloat64Column(t *testing.T) {
	b := NewFloat64Builder("price")
	b.Append(1.5)
	b.Append(2.5)
	col := b.Build()
	if col.IsNull(0) {
		t.Error("no nulls expected")
	}
	if col.Float64(1) != 2.5 {
		t.Errorf("Float64(1) = %v", col.Float64(1))
	}
}

func TestStringColumnDictionary(t *testing.T) {
	b := NewStringBuilder("state")
	for _, s := range []string{"NY", "CA", "NY", "TX", "CA", "NY"} {
		b.Append(s)
	}
	col := b.Build()
	if col.DictSize() != 3 {
		t.Fatalf("dict size = %d, want 3", col.DictSize())
	}
	// Dictionary sorted => codes order-preserving.
	ca, _ := col.Lookup("CA")
	ny, _ := col.Lookup("NY")
	tx, _ := col.Lookup("TX")
	if !(ca < ny && ny < tx) {
		t.Errorf("dictionary not sorted: CA=%d NY=%d TX=%d", ca, ny, tx)
	}
	if _, ok := col.Lookup("WA"); ok {
		t.Error("Lookup of absent value should fail")
	}
	if col.Value(0).S != "NY" || col.Decode(col.Code(3)) != "TX" {
		t.Error("code round trip broken")
	}
	// Equal strings share codes.
	if col.Code(0) != col.Code(2) || col.Code(0) != col.Code(5) {
		t.Error("equal values should share a dictionary code")
	}
}

func TestStringColumnNulls(t *testing.T) {
	b := NewStringBuilder("s")
	b.Append("x")
	b.AppendNull()
	col := b.Build()
	if !col.IsNull(1) || col.IsNull(0) {
		t.Error("string nulls wrong")
	}
}

func TestValueCompareAndEqual(t *testing.T) {
	if IntValue(1).Compare(IntValue(2)) != -1 ||
		IntValue(2).Compare(IntValue(1)) != 1 ||
		IntValue(2).Compare(IntValue(2)) != 0 {
		t.Error("int compare broken")
	}
	if StringValue("a").Compare(StringValue("b")) != -1 {
		t.Error("string compare broken")
	}
	if FloatValue(1.5).Compare(FloatValue(0.5)) != 1 {
		t.Error("float compare broken")
	}
	// NULLs sort first and equal only each other.
	if NullValue(Int64).Compare(IntValue(0)) != -1 {
		t.Error("NULL should sort first")
	}
	if !NullValue(Int64).Equal(NullValue(Int64)) {
		t.Error("NULL == NULL under Equal")
	}
	if NullValue(Int64).Equal(IntValue(0)) {
		t.Error("NULL != 0")
	}
	if IntValue(1).Equal(FloatValue(1)) {
		t.Error("cross-type Equal should be false")
	}
}

func TestTableAssembly(t *testing.T) {
	a := NewInt64Builder("id")
	b := NewStringBuilder("name")
	for i := 0; i < 5; i++ {
		a.Append(int64(i))
		b.Append("x")
	}
	tbl, err := NewTable("t", a.Build(), b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 5 || tbl.NumColumns() != 2 {
		t.Fatalf("rows=%d cols=%d", tbl.Rows(), tbl.NumColumns())
	}
	if tbl.Column("id") == nil || tbl.Column("nope") != nil {
		t.Error("Column lookup broken")
	}
	if tbl.ColumnIndex("name") != 1 || tbl.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex broken")
	}
	row := tbl.Row(3)
	if row[0].I != 3 || row[1].S != "x" {
		t.Errorf("Row(3) = %v", row)
	}
	if tbl.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
}

func TestTableValidation(t *testing.T) {
	a := NewInt64Builder("a")
	a.Append(1)
	short := NewInt64Builder("b")
	if _, err := NewTable("t", a.Build(), short.Build()); err == nil {
		t.Error("row-count mismatch should be rejected")
	}
	c1 := NewInt64Builder("dup")
	c1.Append(1)
	c2 := NewInt64Builder("dup")
	c2.Append(2)
	if _, err := NewTable("t", c1.Build(), c2.Build()); err == nil {
		t.Error("duplicate column names should be rejected")
	}
	if _, err := NewTable("t"); err == nil {
		t.Error("empty table should be rejected")
	}
}

func TestColumnFromValues(t *testing.T) {
	col, err := ColumnFromValues("v", Int64, []Value{IntValue(1), NullValue(Int64), IntValue(3)})
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 3 || !col.IsNull(1) {
		t.Error("int column from values wrong")
	}
	s, err := ColumnFromValues("s", String, []Value{StringValue("a"), StringValue("b")})
	if err != nil {
		t.Fatal(err)
	}
	if s.Value(1).S != "b" {
		t.Error("string column from values wrong")
	}
	f, err := ColumnFromValues("f", Float64, []Value{FloatValue(2.5)})
	if err != nil {
		t.Fatal(err)
	}
	if f.Value(0).F != 2.5 {
		t.Error("float column from values wrong")
	}
}

func TestTypeWidth(t *testing.T) {
	if Int64.Width() != 8 || Float64.Width() != 8 || String.Width() != 4 {
		t.Error("type widths wrong")
	}
}

// TestRenameSharesStorageAndHash: Rename is a new header over the same
// vectors, dictionary and null bitmap, and the content hash — which does
// not cover the name — rides along whether or not it was computed yet.
func TestRenameSharesStorageAndHash(t *testing.T) {
	ib := NewInt64Builder("i")
	fb := NewFloat64Builder("f")
	sb := NewStringBuilder("s")
	for i := 0; i < 100; i++ {
		if i%7 == 0 {
			ib.AppendNull()
			fb.AppendNull()
			sb.AppendNull()
			continue
		}
		ib.Append(int64(i))
		fb.Append(float64(i) / 2)
		sb.Append(string(rune('a' + i%5)))
	}
	for _, src := range []Column{ib.Build(), fb.Build(), sb.Build()} {
		cold := src.Rename("cold") // renamed before the source was ever hashed
		h := src.ContentHash()
		warm := src.Rename("warm")
		for _, c := range []Column{cold, warm} {
			if c.Name() == src.Name() || c.Len() != src.Len() || c.Type() != src.Type() || c.ContentHash() != h {
				t.Errorf("%s renamed to %s: shape or content hash changed", src.Name(), c.Name())
			}
			for i := 0; i < src.Len(); i++ {
				if !c.Value(i).Equal(src.Value(i)) {
					t.Fatalf("%s row %d: %v, want %v", c.Name(), i, c.Value(i), src.Value(i))
				}
			}
		}
	}
	i := ib.Build()
	if r := i.Rename("r").(*Int64Column); &r.Data()[0] != &i.Data()[0] || r.Nulls() != i.Nulls() {
		t.Error("Rename copied the column")
	}
}

// TestRenamedHeaderHashesOnce: a hash a renamed header computes — here a
// header renamed from a header — is memoized on the column it was renamed
// from, so a column renamed afresh for every query is walked once.
func TestRenamedHeaderHashesOnce(t *testing.T) {
	ib, sb := NewInt64Builder("i"), NewStringBuilder("s")
	for i := 0; i < 100; i++ {
		ib.Append(int64(i))
		sb.Append(string(rune('a' + i%5)))
	}
	i, s := ib.Build(), sb.Build()
	for _, tc := range []struct {
		src  Column
		memo *hashMemo
	}{{i, &i.hash}, {s, &s.hash}} {
		h := tc.src.Rename("a").Rename("b").ContentHash()
		if p := tc.memo.p.Load(); p == nil || *p != h {
			t.Errorf("%s: the hash a renamed header computed is not memoized on the column", tc.src.Name())
		}
	}
}

// TestContentHashConcurrent: the memo is filled by whichever goroutine
// gets there first; every caller sees the same value (run under -race).
func TestContentHashConcurrent(t *testing.T) {
	b := NewInt64Builder("k")
	for i := 0; i < 10_000; i++ {
		b.Append(int64(i * 31))
	}
	col, want := b.Build(), b.Build().ContentHash()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := col.Rename("x").ContentHash(); got != want {
				t.Errorf("concurrent ContentHash = %x, want %x", got, want)
			}
			if got := col.ContentHash(); got != want {
				t.Errorf("concurrent ContentHash = %x, want %x", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestWithKey: a keyed header shares the column's vectors, its Key is the
// provenance key and survives a rename, and its ContentHash is still the
// content's.
func TestWithKey(t *testing.T) {
	ib := NewInt64Builder("i")
	fb := NewFloat64Builder("f")
	sb := NewStringBuilder("s")
	for i := 0; i < 50; i++ {
		ib.Append(int64(i))
		fb.Append(float64(i) / 4)
		sb.Append(string(rune('a' + i%3)))
	}
	for _, src := range []Column{ib.Build(), fb.Build(), sb.Build()} {
		if src.Key() != src.ContentHash() {
			t.Fatalf("%s: an unkeyed column's key is not its content hash", src.Name())
		}
		const key = 0x5eed
		keyed := WithKey(src, key)
		for _, c := range []Column{keyed, keyed.Rename("r")} {
			if c.Key() != key || c.ContentHash() != src.ContentHash() || c.Len() != src.Len() || c.Type() != src.Type() {
				t.Errorf("%s as %s: key %x content hash %x, want %x and %x", src.Name(), c.Name(), c.Key(), c.ContentHash(), uint64(key), src.ContentHash())
			}
		}
	}
	i := ib.Build()
	if k := WithKey(i, 1).(*Int64Column); &k.Data()[0] != &i.Data()[0] || k.Name() != i.Name() {
		t.Error("WithKey copied or renamed the column")
	}
	if MixKeys(1, 2) == MixKeys(2, 1) || MixKeys(1) == MixKeys(1, 0) {
		t.Error("MixKeys ignores order or arity")
	}
}
