package kmv

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"blugpu/internal/murmur"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("k=1 should be rejected")
	}
	if _, err := New(2); err != nil {
		t.Errorf("k=2 should be accepted: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) should panic")
		}
	}()
	MustNew(0)
}

func TestExactBelowK(t *testing.T) {
	s := MustNew(256)
	for i := 0; i < 100; i++ {
		s.AddUint64(uint64(i))
	}
	// Duplicates must not inflate the count.
	for i := 0; i < 100; i++ {
		s.AddUint64(uint64(i))
	}
	if got := s.EstimateUint64(); got != 100 {
		t.Errorf("estimate below k should be exact: got %d, want 100", got)
	}
	if s.Observed() != 200 {
		t.Errorf("Observed = %d, want 200", s.Observed())
	}
}

func TestEmpty(t *testing.T) {
	s := MustNew(64)
	if s.EstimateUint64() != 0 {
		t.Error("empty sketch should estimate 0")
	}
}

func TestEstimateAccuracy(t *testing.T) {
	// Known distinct counts; estimate should land within a few standard
	// errors (1/sqrt(k-2) ~ 3.2% at k=1024).
	for _, distinct := range []int{5_000, 50_000, 500_000} {
		s := MustNew(1024)
		for i := 0; i < distinct; i++ {
			s.AddUint64(uint64(i) * 2654435761)
		}
		est := s.Estimate()
		relErr := math.Abs(est-float64(distinct)) / float64(distinct)
		if relErr > 0.15 {
			t.Errorf("distinct=%d: estimate %.0f off by %.1f%%", distinct, est, relErr*100)
		}
	}
}

func TestDuplicateHeavyStream(t *testing.T) {
	// 1M rows but only 12 groups (the paper's birth-month example).
	s := MustNew(1024)
	for i := 0; i < 1_000_000; i++ {
		s.AddUint64(uint64(i % 12))
	}
	if got := s.EstimateUint64(); got != 12 {
		t.Errorf("estimate = %d, want exactly 12 (below k is exact)", got)
	}
}

func TestMerge(t *testing.T) {
	a, b := MustNew(512), MustNew(512)
	for i := 0; i < 40_000; i++ {
		a.AddUint64(uint64(i))
	}
	for i := 20_000; i < 60_000; i++ {
		b.AddUint64(uint64(i))
	}
	a.Merge(b)
	est := a.Estimate()
	relErr := math.Abs(est-60_000) / 60_000
	if relErr > 0.2 {
		t.Errorf("merged estimate %.0f off by %.1f%% (want ~60000)", est, relErr*100)
	}
	if a.Observed() != 80_000 {
		t.Errorf("merged Observed = %d, want 80000", a.Observed())
	}
	a.Merge(nil) // must not panic
}

func TestAddBytesAndUint64Consistent(t *testing.T) {
	s := MustNew(64)
	s.Add([]byte("store_sk=1"))
	s.Add([]byte("store_sk=1"))
	s.Add([]byte("store_sk=2"))
	if got := s.EstimateUint64(); got != 2 {
		t.Errorf("estimate = %d, want 2", got)
	}
}

// fuzzHashes reads a hash stream out of bytes, two at a time: a selector
// picks 0, MaxUint64, a full 64-bit value from the next eight bytes, or a
// value from a domain of 1 536, so duplicates are common.
func fuzzHashes(data []byte) []uint64 {
	var hs []uint64
	for len(data) >= 2 {
		sel, b := data[0], data[1]
		data = data[2:]
		switch sel % 8 {
		case 0:
			hs = append(hs, 0)
		case 1:
			hs = append(hs, math.MaxUint64)
		case 2:
			if len(data) >= 8 {
				hs = append(hs, binary.LittleEndian.Uint64(data))
				data = data[8:]
			}
		default:
			hs = append(hs, uint64(sel%8)<<61|uint64(b)*0x9e3779b97f4a7c15>>8)
		}
	}
	return hs
}

// FuzzSketchMatchesReference: whatever the stream and however it is cut
// into chunks, the merged sketch keeps exactly the k smallest distinct
// hashes, a sort-and-deduplicate reference's, and estimates what they
// give. The per-chunk sketches and a single sketch over the whole stream
// are held to the same reference, and the kept set and its membership
// table must agree entry for entry.
func FuzzSketchMatchesReference(f *testing.F) {
	seed := []byte{0, 0, 1, 1, 2, 9, 1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 200; i++ {
		seed = append(seed, byte(3+i%5), byte(i*37))
	}
	f.Add(uint8(4), []byte{3, 0, 17}, seed)
	f.Add(uint8(30), []byte{}, seed)
	f.Add(uint8(0), []byte{1, 1, 1}, []byte{0, 0, 0, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, k uint8, cuts, data []byte) {
		kk := 2 + int(k)%30
		hs := fuzzHashes(data)
		ref := slices.Compact(sorted(hs))
		kept := ref[:min(kk, len(ref))]
		check := func(label string, s *Sketch, stream []uint64) {
			t.Helper()
			distinct := slices.Compact(sorted(stream))
			want := distinct[:min(kk, len(distinct))]
			got := sorted(s.heap)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: kept %x, want %x", label, got, want)
			}
			if s.Observed() != uint64(len(stream)) {
				t.Fatalf("%s: observed %d, want %d", label, s.Observed(), len(stream))
			}
			members := 0
			if s.seen.zero {
				members++
			}
			for _, v := range s.seen.slots {
				if v != 0 {
					members++
				}
			}
			for _, v := range want {
				if s.seen.add(v) {
					t.Fatalf("%s: kept value %x missing from the set", label, v)
				}
			}
			if members != len(want) {
				t.Fatalf("%s: set holds %d values, sketch keeps %d", label, members, len(want))
			}
			if got, want := s.EstimateUint64(), referenceEstimate(kk, len(stream), want); got != want {
				t.Fatalf("%s: estimate %d, want %d", label, got, want)
			}
		}
		whole := MustNew(kk)
		for _, h := range hs {
			whole.AddHash(h)
		}
		check("whole", whole, hs)
		merged, rest := MustNew(kk), hs
		for i := 0; len(rest) > 0; i++ {
			n := len(rest)
			if i < len(cuts) {
				n = min(n, int(cuts[i])%64)
			}
			part := MustNew(kk)
			for _, h := range rest[:n] {
				part.AddHash(h)
			}
			check(fmt.Sprintf("chunk %d", i), part, rest[:n])
			merged.Merge(part)
			rest = rest[n:]
		}
		check("merged", merged, hs)
		if !slices.Equal(sorted(merged.heap), kept) {
			t.Fatal("merged sketch differs from the whole-stream sketch")
		}
	})
}

// sorted returns an ascending copy of hs.
func sorted(hs []uint64) []uint64 {
	out := slices.Clone(hs)
	slices.Sort(out)
	return out
}

// referenceEstimate is EstimateUint64 computed from the sorted kept set.
func referenceEstimate(k, observed int, kept []uint64) uint64 {
	if observed == 0 {
		return 0
	}
	e := float64(len(kept))
	if len(kept) == k {
		e = float64(k-1) / ((float64(kept[k-1]) + 1) / math.Pow(2, 64))
	}
	if e < 1 {
		return 1
	}
	return uint64(e + 0.5)
}

// BenchmarkSketch is the HASH evaluator's sketch at one worker's share of
// a group-by: 11 000 hashed keys over 6, 10 000 and 72 000 distinct values.
func BenchmarkSketch(b *testing.B) {
	for _, distinct := range []int{6, 10_000, 72_000} {
		hs := make([]uint64, 11_000)
		for i := range hs {
			hs[i] = murmur.Sum64Uint64(uint64(i*7919%distinct), 0x5bd1e995)
		}
		b.Run(fmt.Sprintf("distinct=%d", distinct), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := MustNew(DefaultK)
				for _, h := range hs {
					s.AddHash(h)
				}
			}
		})
	}
}
