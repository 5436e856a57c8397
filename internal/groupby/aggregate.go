package groupby

import (
	"math"
	"math/bits"

	"blugpu/internal/columnar"
	"blugpu/internal/parallel"
)

// partitionGrain is the fewest rows a partition of the aggregation loop
// takes: smaller inputs run in fewer partitions.
const partitionGrain = 16384

// mergeGrain is the fewest partition entries a merge bucket takes: fewer
// entries merge in fewer buckets.
const mergeGrain = 16384

// foldRows is how many rows a partition resolves to group ids before the
// aggregates fold them, a column at a time.
const foldRows = 1024

// table is one partition's private hash table, and one merge bucket's: a
// linear-probing index of power-of-two slots over dense group ids, with
// each group's key words, row hash and accumulators appended to flat
// arrays — the entry layout of Mask, split into columns. The index
// doubles once three quarters full (the KMV estimate that sizes it can be
// low); doubling re-homes ids and never moves a group. The merged table
// the buckets concatenate into has no index: nothing looks a key up in it.
type table struct {
	index  []uint32   // slot -> group id + 1, 0 when empty
	keys   []uint64   // KeyWords per group
	hashes []uint64   // per group: the HASH evaluator's value for its rows
	accs   [][]uint64 // per aggregate, one accumulator word per group
	kw     int
}

// newTable returns an empty table with room for capacity groups.
func newTable(in *Input, capacity int) *table {
	t := &table{
		index:  make([]uint32, indexSlots(capacity)),
		keys:   make([]uint64, 0, capacity*in.KeyWords()),
		hashes: make([]uint64, 0, capacity),
		accs:   make([][]uint64, len(in.Aggs)),
		kw:     in.KeyWords(),
	}
	for a := range t.accs {
		t.accs[a] = make([]uint64, 0, capacity)
	}
	return t
}

// indexSlots is the smallest power of two, at least 16, that holds n
// groups at most three quarters full.
func indexSlots(n int) int {
	slots := 16
	for slots*3 < n*4 {
		slots <<= 1
	}
	return slots
}

// groups returns the number of groups in the table.
func (t *table) groups() int { return len(t.hashes) }

// find returns key's group id. A new key appends a group whose
// accumulators hold the mask values (Section 4.3.1's Table 1) and reports
// fresh.
func (t *table) find(key []uint64, hash uint64, aggs []AggSpec) (g int, fresh bool) {
	if (len(t.hashes)+1)*4 > len(t.index)*3 {
		t.grow()
	}
	m := len(t.index) - 1
	for s := int(hash) & m; ; s = (s + 1) & m {
		id := t.index[s]
		if id == 0 {
			g = len(t.hashes)
			t.index[s] = uint32(g + 1)
			t.keys = append(t.keys, key...)
			t.hashes = append(t.hashes, hash)
			for a, spec := range aggs {
				t.accs[a] = append(t.accs[a], spec.InitWord())
			}
			return g, true
		}
		g = int(id - 1)
		if t.keys[g*t.kw] == key[0] && (t.kw == 1 || wordsEqual(t.keys[g*t.kw:(g+1)*t.kw], key)) {
			return g, false
		}
	}
}

// grow doubles the index and re-homes every group in id order.
func (t *table) grow() {
	t.index = make([]uint32, 2*len(t.index))
	m := len(t.index) - 1
	for g, h := range t.hashes {
		s := int(h) & m
		for t.index[s] != 0 {
			s = (s + 1) & m
		}
		t.index[s] = uint32(g + 1)
	}
}

// result renders the table as a Result, groups in id order.
func (t *table) result() *Result {
	return &Result{Groups: t.groups(), Keys: t.keys, AggWords: t.accs}
}

// aggregate is the group-by, for the CPU path and every device kernel
// alike. parallel.For splits the rows into 64-aligned partitions fixed by
// (NumRows, partitionGrain, degree) — never by the host's core count —
// and each partition aggregates its rows in order into a private table;
// the tables then merge, each group's partials in partition order. So the
// answer, float SUMs to the last bit, is a function of the input and the
// degree. It also returns the partitions' summed group counts: the
// entries the merge folds.
func aggregate(in *Input, degree int) (*table, int) {
	degree = max(degree, 1)
	parts := make([]*table, parallel.Workers(in.NumRows, partitionGrain, degree))
	parallel.For(in.NumRows, partitionGrain, degree, func(lo, hi, w int) {
		parts[w] = aggregateRange(in, lo, hi)
	})
	switch len(parts) {
	case 0:
		return newTable(in, 0), 0
	case 1:
		return parts[0], parts[0].groups()
	}
	local := 0
	for _, p := range parts {
		local += p.groups()
	}
	return mergeParts(in, parts, local, degree), local
}

// mergeParts merges the partition tables in parallel, by bucket: the high
// bits of a group's hash pick one of a power-of-two number of buckets,
// fixed by the entry count and the degree, and each bucket merges on a
// worker of its own, partition by partition in partition order and,
// within a partition, in group id order. A key lives in one bucket, so
// every group meets its partials in the order a serial merge in partition
// order gives it, and every accumulator word is that merge's. The merged
// table lists the groups bucket after bucket; buildAggOutput puts them in
// key order, and no kernel's cost depends on it.
func mergeParts(in *Input, parts []*table, local, degree int) *table {
	nb := 1
	for nb*2 <= degree && nb*2*mergeGrain <= local {
		nb *= 2
	}
	// A shift of 64 (one bucket) sends every hash to bucket 0.
	shift := uint(64 - bits.TrailingZeros(uint(nb)))
	// ids[p][starts[p][b]:starts[p][b+1]] are partition p's groups in
	// bucket b, in id order.
	ids, starts := make([][]int32, len(parts)), make([][]int, len(parts))
	parallel.Go(len(parts), func(p int) {
		start := make([]int, nb+1)
		for _, h := range parts[p].hashes {
			start[h>>shift+1]++
		}
		for b := 1; b <= nb; b++ {
			start[b] += start[b-1]
		}
		next, list := append([]int(nil), start[:nb]...), make([]int32, len(parts[p].hashes))
		for g, h := range parts[p].hashes {
			list[next[h>>shift]] = int32(g)
			next[h>>shift]++
		}
		ids[p], starts[p] = list, start
	})
	buckets := make([]*table, nb)
	parallel.Go(nb, func(b int) {
		n, widest := 0, 0
		for p := range parts {
			c := starts[p][b+1] - starts[p][b]
			n, widest = n+c, max(widest, c)
		}
		t := newTable(in, min(n, max(widest, estimate(in)/nb)))
		for p, part := range parts {
			for _, g := range ids[p][starts[p][b]:starts[p][b+1]] {
				dst, fresh := t.find(part.keys[int(g)*part.kw:int(g+1)*part.kw], part.hashes[g], in.Aggs)
				for a, spec := range in.Aggs {
					// A group's first partial is taken as it is, not folded
					// into the mask: 0 + -0.0 would not keep its sign.
					acc := part.accs[a][g]
					if !fresh {
						acc = combine(spec, t.accs[a][dst], acc)
					}
					t.accs[a][dst] = acc
				}
			}
		}
		buckets[b] = t
	})
	if nb == 1 {
		return buckets[0]
	}
	offs := make([]int, nb+1)
	for b, t := range buckets {
		offs[b+1] = offs[b] + t.groups()
	}
	groups, kw := offs[nb], in.KeyWords()
	merged := &table{
		keys:   make([]uint64, groups*kw),
		hashes: make([]uint64, groups),
		accs:   make([][]uint64, len(in.Aggs)),
		kw:     kw,
	}
	for a := range merged.accs {
		merged.accs[a] = make([]uint64, groups)
	}
	parallel.Go(nb, func(b int) {
		t, at := buckets[b], offs[b]
		copy(merged.keys[at*kw:], t.keys)
		copy(merged.hashes[at:], t.hashes)
		for a := range merged.accs {
			copy(merged.accs[a][at:], t.accs[a])
		}
	})
	return merged
}

// estimate is the capacity to give a table that may see every group: the
// KMV estimate with a quarter of headroom, since the estimate can be a
// little low and an append past capacity copies the whole table; the row
// count when there is no estimate.
func estimate(in *Input) int {
	if in.EstGroups == 0 {
		return in.NumRows
	}
	return int(in.EstGroups + in.EstGroups/4)
}

// aggregateRange aggregates rows [lo, hi) in row order into a fresh
// table sized by the group estimate: it resolves foldRows rows at a time
// to group ids, then folds each aggregate's payloads for them.
func aggregateRange(in *Input, lo, hi int) *table {
	t := newTable(in, min(hi-lo, estimate(in)))
	kw := t.kw
	var ids [foldRows]int32
	for start := lo; start < hi; start += foldRows {
		end := min(start+foldRows, hi)
		rows := ids[:end-start]
		for i := start; i < end; i++ {
			g, _ := t.find(in.Keys[i*kw:(i+1)*kw], in.Hashes[i], in.Aggs)
			rows[i-start] = int32(g)
		}
		for a, spec := range in.Aggs {
			var payload []uint64
			if spec.Kind != Count {
				payload = in.Payloads[a][start:end]
			}
			fold(t.accs[a], spec, payload, rows)
		}
	}
	return t
}

// fold applies one aggregate over a run of rows: row j of the run belongs
// to group ids[j] and carries payload[j] (nil for COUNT).
func fold(acc []uint64, spec AggSpec, payload []uint64, ids []int32) {
	switch {
	case spec.Kind == Count:
		for _, g := range ids {
			acc[g]++
		}
	case spec.Kind == Sum && spec.Type == columnar.Float64:
		for j, g := range ids {
			acc[g] = math.Float64bits(math.Float64frombits(acc[g]) + math.Float64frombits(payload[j]))
		}
	case spec.Kind == Sum:
		for j, g := range ids {
			acc[g] += payload[j]
		}
	default:
		for j, g := range ids {
			acc[g] = combine(spec, acc[g], payload[j])
		}
	}
}

// combine folds word b into accumulator word a: COUNT and SUM add (two's
// complement or float64), MIN and MAX compare, by the aggregate's type.
func combine(spec AggSpec, a, b uint64) uint64 {
	float := spec.Type == columnar.Float64
	switch spec.Kind {
	case Count:
		return a + b
	case Sum:
		if float {
			return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
		}
		return a + b
	case Min:
		if float && math.Float64frombits(b) < math.Float64frombits(a) || !float && int64(b) < int64(a) {
			return b
		}
	case Max:
		if float && math.Float64frombits(b) > math.Float64frombits(a) || !float && int64(b) > int64(a) {
			return b
		}
	}
	return a
}

func wordsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
