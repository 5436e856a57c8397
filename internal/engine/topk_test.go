package engine

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"

	"blugpu/internal/bsort"
	"blugpu/internal/columnar"
	"blugpu/internal/fault"
	"blugpu/internal/gpu"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

// FuzzTopKMatchesSort: over the sort-key fuzzer's tables — NULLs,
// negative ints, ±0, ±Inf and NaN floats, ASC / DESC mixes, one to three
// key columns — tiled up to eight times so every key repeats and the
// selection spans several workers, bsort.TopK's k rows at degrees 1 and 8
// are the first k of bsort.Sort's permutation and the first k of a stable
// comparison sort of the byte keys themselves, for any k in [1, n].
func FuzzTopKMatchesSort(f *testing.F) {
	var seed, noNulls []byte
	for r, fl := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -2.5, 2.5, 1e300} {
		seed = append(seed, sortRow(byte(r%8), int64(r-4)*math.MaxInt64/3, fl, byte(r))...)
		seed = append(seed, sortRow(0, int64(r%2), fl, byte(r%2))...)
		noNulls = append(noNulls, sortRow(0, int64(r%3), -fl, byte(r%2))...)
	}
	for i, shape := range []byte{0, 0b0100101, 0b1001010, 0b1010111, 0b0111000} {
		f.Add(shape, byte(i*2), uint16(1+i*7), seed)
	}
	f.Add(byte(0b0100110), byte(7), uint16(1), noNulls)
	f.Add(byte(0b1011011), byte(7), uint16(300), noNulls)
	// 300 rows of few distinct keys, tiled eight ways: 2 400 rows, so the
	// selection runs on several workers at degree 8.
	var wide []byte
	for r := range 300 {
		wide = append(wide, sortRow(byte(r%5), int64(r%17), float64(r%11)-5, byte(r%4))...)
	}
	f.Add(byte(0b0100101), byte(7), uint16(97), wide)
	f.Add(byte(0b1010010), byte(7), uint16(2399), wide)
	f.Add(byte(0), byte(0), uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, shape, tiles byte, kpick uint16, rows []byte) {
		base, keys := sortTable(rows), sortKeysFor(shape)
		if base.Rows() == 0 {
			return
		}
		tiled := make([]int32, 0, base.Rows()*(1+int(tiles)%8))
		for range 1 + int(tiles)%8 {
			tiled = append(tiled, columnar.IotaRows(base.Rows(), 1)...)
		}
		tbl := columnar.GatherTable("t", base, tiled)
		n := tbl.Rows()
		k := 1 + int(kpick)%n
		words, offs, err := sortKeyWords(columnar.TableRows{Table: tbl}, keys, 1)
		if err != nil {
			t.Fatal(err)
		}
		src := bsort.NewFlatKeySource(words, n, offs[len(keys)])
		perm, _, err := bsort.Sort(src, bsort.Config{Model: vtime.Default(), Degree: 3})
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceSortKeys(tbl, keys)
		want := columnar.IotaRows(n, 1)
		sort.SliceStable(want, func(a, b int) bool { return bytes.Compare(ref[want[a]], ref[want[b]]) < 0 })
		for _, degree := range []int{1, 8} {
			got := bsort.TopK(src, k, degree)
			if !slices.Equal(got, perm[:k]) {
				t.Fatalf("keys %v n %d k %d degree %d: top-k %v, sort's first k %v", keys, n, k, degree, got, perm[:k])
			}
			if !slices.Equal(got, want[:k]) {
				t.Fatalf("keys %v n %d k %d degree %d: top-k %v, byte keys' first k %v", keys, n, k, degree, got, want[:k])
			}
		}
	})
}

// TestTopKSelectFault: bd-complex-2's group-by, fused and NoFusion, keeps
// only its LIMIT 200 groups after a topk_select kernel, and a
// topk_select that faults is handled like any group-by kernel. The injector is seeded so that the first kernel
// fault on the device that ran the selection in a fault-free run is that
// selection; the group-by then retries on the other device or falls back
// to the host, and the statement answers exactly as it does with the GPU
// off.
func TestTopKSelectFault(t *testing.T) {
	ds := workload.Generate(0.02, 20160626)
	var sql string
	for _, q := range workload.BDInsights() {
		if q.ID == "bd-complex-2" {
			sql = q.SQL
		}
	}
	run := func(cfg Config) (*Result, *eventTap) {
		t.Helper()
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var tap *eventTap
		if cfg.Devices > 0 {
			tap = tapDevices(t, e)
		}
		if err := ds.RegisterAll(e); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		return res, tap
	}
	off, _ := run(Config{Devices: 0, Degree: 8})
	for _, noFusion := range []bool{false, true} {
		cfg := Config{Devices: 2, Degree: 8, NoFusion: noFusion}
		clean, tap := run(cfg)
		// LIMIT 200 over thousands of groups: only 200 leave the device.
		for _, op := range clean.Ops {
			if a := op.Agg; a != nil && (a.Kept != 200 || op.Rows != 200 || a.ActualGroups <= 200) {
				t.Fatalf("nofusion %t: group-by kept %d, rows %d of %d groups, want 200", noFusion, a.Kept, op.Rows, a.ActualGroups)
			}
		}
		// The selection's draw: the kernels its device ran before it.
		dev, draw := -1, 0
		kernels := map[int]int{}
		for _, ev := range tap.events {
			if ev.Kind != gpu.EventKernel {
				continue
			}
			if ev.Name == "topk_select" {
				dev, draw = ev.Device, kernels[ev.Device]
				break
			}
			kernels[ev.Device]++
		}
		if dev < 0 {
			t.Fatalf("nofusion %t: no topk_select kernel ran", noFusion)
		}
		firstFault := func(seed uint64) bool {
			inj := fault.New(fault.Config{Seed: seed, Kernel: 0.5})
			for range draw {
				if inj.Fail(fault.Kernel, dev) {
					return false
				}
			}
			return inj.Fail(fault.Kernel, dev)
		}
		seed := uint64(1)
		for !firstFault(seed) {
			seed++
		}
		cfg.Faults = fault.New(fault.Config{Seed: seed, Kernel: 0.5})
		res, ftap := run(cfg)
		// The first fault fired on the selection's device at its draw.
		before := 0
		for _, ev := range ftap.events {
			if ev.Kind == gpu.EventFault {
				if ev.Device != dev || before != draw {
					t.Fatalf("nofusion %t seed %d: first fault on device %d after %d kernels, want device %d after %d", noFusion, seed, ev.Device, before, dev, draw)
				}
				break
			}
			if ev.Kind == gpu.EventKernel && ev.Device == dev {
				before++
			}
		}
		if cfg.Faults.Counts().Kernel == 0 {
			t.Fatalf("nofusion %t seed %d: no kernel fault fired", noFusion, seed)
		}
		var handled bool
		for _, op := range res.Ops {
			if a := op.Agg; a != nil {
				handled = a.Retries > 0 || a.FallbackCause != ""
			}
		}
		if !handled {
			t.Errorf("nofusion %t seed %d: the faulted selection neither retried nor fell back", noFusion, seed)
		}
		if !bytes.Equal(canonicalResult(res.Table), canonicalResult(off.Table)) {
			t.Errorf("nofusion %t seed %d: answer under the fault differs from the GPU-off answer", noFusion, seed)
		}
	}
}
