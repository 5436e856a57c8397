package groupby

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/murmur"
)

// serialMerge is the merge as it ran before it went by bucket: one table,
// the partitions folded into it one after another in partition order.
func serialMerge(in *Input, parts []*table) *table {
	merged := newTable(in, 0)
	for _, p := range parts {
		for g, h := range p.hashes {
			dst, fresh := merged.find(p.keys[g*p.kw:(g+1)*p.kw], h, in.Aggs)
			for a, spec := range in.Aggs {
				acc := p.accs[a][g]
				if !fresh {
					acc = combine(spec, merged.accs[a][dst], acc)
				}
				merged.accs[a][dst] = acc
			}
		}
	}
	return merged
}

// TestBucketedMergeMatchesSerial: over 1, 2, 8 and 24 partitions, merged
// at degrees that give one bucket up to eight, every group's hash and
// every accumulator word is the serial merge's — float SUM, MIN and MAX
// over -0.0, NaNs of two payloads and ±Inf, where any other fold order
// would show, and int SUM, COUNT, MIN and MAX.
func TestBucketedMergeMatchesSerial(t *testing.T) {
	const n, groups = 300_000, 40_000
	rng := rand.New(rand.NewSource(29))
	floats := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0abc),
		math.Inf(1), math.Inf(-1), 1.5, -2.25, 1e300, -1e-300}
	ints := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, 42}
	in := &Input{
		NumRows: n, Keys: make([]uint64, n), Hashes: make([]uint64, n), KeyBytes: 8, KeyBits: 16,
		Aggs: []AggSpec{
			{Kind: Sum, Type: columnar.Float64}, {Kind: Min, Type: columnar.Float64}, {Kind: Max, Type: columnar.Float64},
			{Kind: Sum, Type: columnar.Int64}, {Kind: Count}, {Kind: Min, Type: columnar.Int64}, {Kind: Max, Type: columnar.Int64},
		},
		EstGroups: groups,
	}
	in.Payloads = make([][]uint64, len(in.Aggs))
	for a, spec := range in.Aggs {
		if spec.Kind == Count {
			continue
		}
		in.Payloads[a] = make([]uint64, n)
		for i := range in.Payloads[a] {
			if spec.Type == columnar.Float64 {
				in.Payloads[a][i] = math.Float64bits(floats[rng.Intn(len(floats))])
			} else {
				in.Payloads[a][i] = uint64(ints[rng.Intn(len(ints))])
			}
		}
	}
	for i := range in.Keys {
		in.Keys[i] = uint64(rng.Intn(groups))
		in.Hashes[i] = murmur.Sum64Uint64(in.Keys[i], 0x5bd1e995)
	}
	for _, np := range []int{1, 2, 8, 24} {
		parts, local := make([]*table, np), 0
		for p := range parts {
			parts[p] = aggregateRange(in, p*n/np, (p+1)*n/np)
			local += parts[p].groups()
		}
		want := serialMerge(in, parts)
		for _, degree := range []int{1, 2, 8, 24} {
			label := fmt.Sprintf("%d partitions, degree %d", np, degree)
			got := mergeParts(in, parts, local, degree)
			if got.groups() != want.groups() {
				t.Fatalf("%s: %d groups, want %d", label, got.groups(), want.groups())
			}
			if np == 24 && degree == 24 && got.index != nil {
				t.Fatalf("%s: merged in one bucket", label)
			}
			at := make(map[uint64]int, got.groups())
			for g := range got.hashes {
				at[got.keys[g]] = g
			}
			for g, key := range want.keys {
				h, ok := at[key]
				if !ok {
					t.Fatalf("%s: group %d missing", label, key)
				}
				if got.hashes[h] != want.hashes[g] {
					t.Fatalf("%s: group %d hash %x, want %x", label, key, got.hashes[h], want.hashes[g])
				}
				for a := range in.Aggs {
					if got.accs[a][h] != want.accs[a][g] {
						t.Fatalf("%s: group %d aggregate %d word %x, want %x", label, key, a, got.accs[a][h], want.accs[a][g])
					}
				}
			}
		}
	}
}
