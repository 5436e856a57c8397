package fusion

import (
	"errors"
	"math"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/fault"
	"blugpu/internal/gpu"
	"blugpu/internal/vtime"
)

func testDevice(t *testing.T, mem int64, inj *fault.Injector) *gpu.Device {
	t.Helper()
	spec := vtime.TeslaK40()
	if mem > 0 {
		spec.DeviceMemory = mem
	}
	return gpu.NewDevice(0, spec, gpu.WithModel(vtime.Default()), gpu.WithFaults(inj))
}

func intCol(name string, vals []int64) columnar.Column {
	return columnar.NewInt64Column(name, vals, nil)
}

func TestColumnKeyContentAddressing(t *testing.T) {
	a := intCol("a", []int64{1, 2, 3, 4})
	// Same content in a distinct slice, different name: must collide.
	b := intCol("b", []int64{1, 2, 3, 4})
	if ColumnKey(a) != ColumnKey(b) {
		t.Fatalf("equal content produced different keys")
	}
	c := intCol("a", []int64{1, 2, 3, 5})
	if ColumnKey(a) == ColumnKey(c) {
		t.Fatalf("different content produced equal keys")
	}
	// A null changes the key even when the backing value is equal.
	bld := columnar.NewInt64Builder("a")
	for _, v := range []int64{1, 2, 3} {
		bld.Append(v)
	}
	bld.AppendNull()
	withNull := bld.Build()
	plain := intCol("a", append([]int64{1, 2, 3}, withNull.Data()[3]))
	if ColumnKey(withNull) == ColumnKey(plain) {
		t.Fatalf("null position did not affect the key")
	}
}

// TestColumnKeyPinned pins the content address to values recorded with the
// walk ColumnKey did itself before the hash moved onto the column: cache
// hits, misses and every byte counter downstream depend on these bits.
func TestColumnKeyPinned(t *testing.T) {
	ib := columnar.NewInt64Builder("i")
	fb := columnar.NewFloat64Builder("f")
	sb := columnar.NewStringBuilder("s")
	for i := 0; i < 70; i++ {
		if i%9 == 4 {
			ib.AppendNull()
			fb.AppendNull()
			sb.AppendNull()
			continue
		}
		ib.Append(int64(i*i) - 50)
		fb.Append(float64(i) / 4)
		sb.Append([]string{"NY", "CA", "", "TX"}[i%4])
	}
	fb.Append(math.NaN())
	cols := []columnar.Column{ib.Build(), fb.Build(), sb.Build(), intCol("e", nil)}
	want := []Key{
		{0x5ff7fba203549ea1, 70, columnar.Int64},
		{0xce0d6220ab06b23b, 71, columnar.Float64},
		{0xd7215a085f2e1735, 70, columnar.String},
		{0xe220a8397b1dcdaf, 0, columnar.Int64},
	}
	for i, col := range cols {
		if got := ColumnKey(col); got != want[i] {
			t.Errorf("%s: key %#x/%d/%v, recorded %#x/%d/%v", col.Name(), got.H, got.N, got.T, want[i].H, want[i].N, want[i].T)
		}
	}
}

func TestEnsureHitSkipsTransfer(t *testing.T) {
	dev := testDevice(t, 0, nil)
	c := NewCache()
	model := vtime.Default()
	cols := []columnar.Column{intCol("x", []int64{1, 2, 3}), intCol("y", []int64{4, 5, 6})}

	l1, err := c.Ensure(dev, cols, 0, model, true, 4)
	if err != nil {
		t.Fatalf("first Ensure: %v", err)
	}
	if l1.Uploaded == 0 || l1.Saved != 0 {
		t.Fatalf("first Ensure: uploaded=%d saved=%d, want uploads only", l1.Uploaded, l1.Saved)
	}
	xfers := dev.Counters().Transfers
	l1.Release()

	// Equal content in fresh slices: both columns must hit.
	again := []columnar.Column{intCol("x2", []int64{1, 2, 3}), intCol("y2", []int64{4, 5, 6})}
	l2, err := c.Ensure(dev, again, 0, model, true, 4)
	if err != nil {
		t.Fatalf("second Ensure: %v", err)
	}
	defer l2.Release()
	if l2.Uploaded != 0 || l2.Saved != l1.Uploaded {
		t.Fatalf("second Ensure: uploaded=%d saved=%d, want 0/%d", l2.Uploaded, l2.Saved, l1.Uploaded)
	}
	if got := dev.Counters().Transfers; got != xfers {
		t.Fatalf("hit performed %d device transfers", got-xfers)
	}
	if l2.Modeled != 0 {
		t.Fatalf("hit charged %v", l2.Modeled)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.SavedBytes != l1.Uploaded {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionLRUAndNoRoom(t *testing.T) {
	// Room for exactly one 4-row column image (16 bytes packed).
	dev := testDevice(t, DeviceBytes(4), nil)
	c := NewCache()
	model := vtime.Default()
	a := intCol("a", []int64{1, 2, 3, 4})
	b := intCol("b", []int64{5, 6, 7, 8})

	la, err := c.Ensure(dev, []columnar.Column{a}, 0, model, true, 4)
	if err != nil {
		t.Fatalf("Ensure a: %v", err)
	}

	// While a is pinned, b cannot fit and nothing is evictable.
	if _, err := c.Ensure(dev, []columnar.Column{b}, 0, model, true, 4); !errors.Is(err, ErrNoRoom) {
		t.Fatalf("Ensure b with a pinned: %v, want ErrNoRoom", err)
	}
	la.Release()

	// Unpinned, a is the LRU victim.
	lb, err := c.Ensure(dev, []columnar.Column{b}, 0, model, true, 4)
	if err != nil {
		t.Fatalf("Ensure b after release: %v", err)
	}
	lb.Release()
	if n, _ := c.Resident(0); n != 1 {
		t.Fatalf("resident entries = %d, want 1", n)
	}
	if c.MissBytes(0, []columnar.Column{a}) == 0 {
		t.Fatalf("a still resident after eviction")
	}
	if c.MissBytes(0, []columnar.Column{b}) != 0 {
		t.Fatalf("b not resident after insert")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}

	// Purge drops the remaining entry and frees its reservation.
	if freed := c.PurgeAll(); freed != DeviceBytes(4) {
		t.Fatalf("PurgeAll freed %d", freed)
	}
	if dev.UsedMemory() != 0 {
		t.Fatalf("device still holds %d bytes after purge", dev.UsedMemory())
	}
}

func TestEnsureFaultPropagates(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, H2D: 1.0})
	dev := testDevice(t, 0, inj)
	c := NewCache()
	_, err := c.Ensure(dev, []columnar.Column{intCol("a", []int64{1, 2})}, 0, vtime.Default(), true, 4)
	if !errors.Is(err, gpu.ErrInjected) {
		t.Fatalf("Ensure under H2D fault: %v, want ErrInjected", err)
	}
	if n, _ := c.Resident(0); n != 0 {
		t.Fatalf("faulted fill left %d entries resident", n)
	}
	if dev.UsedMemory() != 0 {
		t.Fatalf("faulted fill leaked %d reserved bytes", dev.UsedMemory())
	}
}

var keySink Key

// BenchmarkColumnKey is the micro-ruler for the content address of a
// 1M-row column: "first" walks every value (a fresh header each time, as
// a gathered join output is), "again" is what every later MissBytes /
// Ensure over the same column pays.
func BenchmarkColumnKey(b *testing.B) {
	vals := make([]int64, 1_000_000)
	for i := range vals {
		vals[i] = int64(i * 2654435761)
	}
	src := intCol("k", vals)
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keySink = ColumnKey(src.Rename("fresh"))
		}
	})
	b.Run("again", func(b *testing.B) {
		hashed := src.Rename("hashed")
		keySink = ColumnKey(hashed)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			keySink = ColumnKey(hashed)
		}
	})
}
