package columnar

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// keyColumn builds an Int64Column from keys; a nil entry is NULL.
func keyColumn(name string, keys []*int64) *Int64Column {
	b := NewInt64Builder(name)
	for _, k := range keys {
		if k == nil {
			b.AppendNull()
		} else {
			b.Append(*k)
		}
	}
	return b.Build()
}

func keysOf(vals ...int64) []*int64 {
	out := make([]*int64, len(vals))
	for i := range vals {
		out[i] = &vals[i]
	}
	return out
}

// checkIndex holds idx to the map the join used to build: every key leads
// to exactly its rows, ascending, and absent keys lead nowhere.
func checkIndex(t *testing.T, c *Int64Column, absent []int64) {
	t.Helper()
	idx := c.KeyIndex()
	want := make(map[int64][]int32)
	for i := 0; i < c.Len(); i++ {
		if !c.IsNull(i) {
			want[c.Int64(i)] = append(want[c.Int64(i)], int32(i))
		}
	}
	unique := true
	for k, rows := range want {
		var got []int32
		for r := idx.First(k); r >= 0; r = idx.Next(r) {
			got = append(got, r)
		}
		if !reflect.DeepEqual(got, rows) {
			t.Fatalf("key %d: rows %v, want %v", k, got, rows)
		}
		unique = unique && len(rows) == 1
	}
	if idx.Unique() != unique {
		t.Errorf("Unique() = %v, want %v", idx.Unique(), unique)
	}
	for _, k := range absent {
		if _, present := want[k]; !present && idx.First(k) != -1 {
			t.Errorf("absent key %d found at row %d", k, idx.First(k))
		}
	}
}

func TestKeyIndexMatchesMap(t *testing.T) {
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(7))
	sparse := make([]*int64, 3000)
	for i := range sparse {
		v := rng.Int63() - rng.Int63()
		sparse[i] = &v
	}
	sparse[17], sparse[18] = sparse[16], nil
	dense := make([]*int64, 5000)
	for i := range dense {
		v := int64(i%1200) - 300
		dense[i] = &v
	}
	dense[0], dense[4999] = nil, nil
	cases := []struct {
		name   string
		keys   []*int64
		direct bool
	}{
		{"empty", nil, true},
		{"all null", []*int64{nil, nil, nil}, true},
		{"single", keysOf(42), true},
		{"dense unique", keysOf(0, 1, 2, 3, 4, 5), true},
		{"dense unordered negative", keysOf(-3, 2, -1, 0, 1, -2), true},
		{"dense with duplicates and nulls", dense, true},
		{"full span", keysOf(math.MinInt64, math.MaxInt64), false},
		{"full span with duplicates", keysOf(math.MaxInt64, math.MinInt64, math.MaxInt64, 0, math.MinInt64), false},
		{"top of the range", keysOf(math.MaxInt64-5, math.MaxInt64, math.MaxInt64-2), true},
		{"bottom of the range", keysOf(math.MinInt64+3, math.MinInt64), true},
		{"sparse", sparse, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := keyColumn("k", tc.keys)
			if got := c.KeyIndex().direct != nil; got != tc.direct {
				t.Errorf("direct-addressed = %v, want %v", got, tc.direct)
			}
			absent := append([]int64{}, extremes...)
			for _, k := range tc.keys {
				if k != nil {
					absent = append(absent, *k-1, *k+1)
				}
			}
			checkIndex(t, c, absent)
		})
	}
}

// TestKeyIndexConcurrent: goroutines racing the first KeyIndex() of a
// fresh column all get the index that was stored, equal to one built
// alone; a rename shares it. Run under -race.
func TestKeyIndexConcurrent(t *testing.T) {
	for round := 0; round < 20; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		keys := make([]*int64, 2000)
		for i := range keys {
			v := rng.Int63n(3000)
			if round%2 == 1 {
				v *= 1 << 40 // open addressing
			}
			keys[i] = &v
		}
		c := keyColumn("k", keys)
		got := make([]*KeyIndex, 16)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = c.KeyIndex()
			}(g)
		}
		wg.Wait()
		alone := buildKeyIndex(c.data, c.nulls)
		for g, x := range got {
			if x != got[0] {
				t.Fatalf("round %d: goroutine %d got a different index object", round, g)
			}
		}
		if !reflect.DeepEqual(got[0], alone) {
			t.Fatalf("round %d: raced index differs from one built alone", round)
		}
		if r := c.Rename("other").(*Int64Column); r.KeyIndex() != got[0] {
			t.Fatalf("round %d: rename did not carry the index", round)
		}
	}
}
