package engine

import (
	"fmt"

	"blugpu/internal/bsort"
	"blugpu/internal/columnar"
	"blugpu/internal/explain"
	"blugpu/internal/parallel"
	"blugpu/internal/plan"
	"blugpu/internal/trace"
)

// encodeSortKeys builds fixed-width binary-sortable keys for the rows of
// tbl under the given sort keys: per column a 4-byte NULL flag (NULLs
// first) followed by the order-preserving encoding of the value. Columns
// are validated up front so the per-row encoding — each row an
// independent allocation — can run across the worker pool.
func encodeSortKeys(tbl *columnar.Table, keys []plan.SortKey, degree int) ([][]byte, error) {
	n := tbl.Rows()
	type colEnc struct {
		col  columnar.Column
		desc bool
	}
	encs := make([]colEnc, len(keys))
	for i, k := range keys {
		col := tbl.Column(k.Column)
		if col == nil {
			return nil, fmt.Errorf("engine: unknown sort column %q", k.Column)
		}
		switch col.(type) {
		case *columnar.Int64Column, *columnar.Float64Column, *columnar.StringColumn:
		default:
			return nil, fmt.Errorf("engine: cannot sort column type %v", col.Type())
		}
		encs[i] = colEnc{col: col, desc: k.Desc}
	}
	out := make([][]byte, n)
	parallel.For(n, exprGrain, degree, func(lo, hi, _ int) {
		for r := lo; r < hi; r++ {
			var key []byte
			for _, enc := range encs {
				null := enc.col.IsNull(r)
				flag := uint32(1)
				if null {
					flag = 0 // NULLs sort first
				}
				key = bsort.AppendUint32Key(key, flag, enc.desc)
				switch c := enc.col.(type) {
				case *columnar.Int64Column:
					v := int64(0)
					if !null {
						v = c.Int64(r)
					}
					key = bsort.AppendInt64Key(key, v, enc.desc)
				case *columnar.Float64Column:
					v := 0.0
					if !null {
						v = c.Float64(r)
					}
					key = bsort.AppendFloat64Key(key, v, enc.desc)
				case *columnar.StringColumn:
					// The dictionary is sorted, so codes are order-preserving.
					code := uint32(0)
					if !null {
						code = uint32(c.Code(r))
					}
					key = bsort.AppendUint32Key(key, code, enc.desc)
				}
			}
			out[r] = bsort.EncodePad(key)
		}
	})
	return out, nil
}

// hybridSort sorts tbl's rows by keys through the hybrid job-queue sort
// and returns the permutation plus the sort stats. op is the operator
// span the per-job sort spans hang off.
func (e *Engine) hybridSort(tbl *columnar.Table, keys []plan.SortKey, f *frame, op trace.Context) ([]int32, bsort.Stats, error) {
	encoded, err := encodeSortKeys(tbl, keys, e.cfg.Degree)
	if err != nil {
		return nil, bsort.Stats{}, err
	}
	src := bsort.NewBytesKeySource(encoded)

	// Stage the partial key buffer in the registered segment when it
	// fits, for fast transfers.
	pinned := false
	if e.registry != nil && tbl.Rows() > 0 {
		if blk, err := e.registry.Alloc(tbl.Rows() * 16); err == nil {
			pinned = true
			defer blk.Release()
		}
	}
	cfg := bsort.Config{
		Model:        e.model,
		Degree:       e.cfg.Degree,
		GPUThreshold: e.cfg.GPUSortThreshold,
		Pinned:       pinned,
		Monitor:      e.mon,
		Trace:        op,
		TraceBase:    f.at(),
	}
	threshold := cfg.GPUThreshold
	if threshold <= 0 {
		threshold = bsort.DefaultGPUThreshold
	}
	if e.GPUEnabled() {
		cfg.Scheduler = e.sched
		if len(e.devices) > 1 && tbl.Rows() >= 2*threshold {
			cfg.Partitions = len(e.devices) * 2
		}
	}
	perm, stats, err := bsort.Sort(src, cfg)
	if err != nil {
		return nil, stats, err
	}
	e.addCPU(f, stats.KeyGen+stats.CPUTime)
	if stats.GPUTime > 0 {
		e.addGPU(f, stats.GPUTime, int64(tbl.Rows())*16)
	}
	return perm, stats, nil
}

// sortRecord converts bsort stats to the operator row's shape.
func sortRecord(stats bsort.Stats) *explain.SortRecord {
	return &explain.SortRecord{
		Jobs: stats.Jobs, GPUJobs: stats.GPUJobs, CPUJobs: stats.CPUJobs,
		Requeues: stats.Requeues, Fallbacks: stats.Fallbacks, MaxDepth: stats.MaxDepth,
	}
}

func (e *Engine) execSort(n *plan.Sort, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	if f.tbl.Rows() > 1 {
		start := f.at()
		sp := f.begin("op", "sort")
		perm, stats, err := e.hybridSort(f.tbl, n.Keys, f, sp)
		if err != nil {
			return nil, err
		}
		sp.End(f.at(), trace.Int("rows", int64(f.tbl.Rows())),
			trace.Int("jobs", int64(stats.Jobs)), trace.Int("gpu-jobs", int64(stats.GPUJobs)))
		f.tbl = columnar.GatherTableDegree(f.tbl.Name()+"_s", f.tbl, perm, e.cfg.Degree)
		f.ops = append(f.ops, OpStat{
			Op: "sort", Detail: fmt.Sprintf("jobs=%d gpu=%d cpu=%d", stats.Jobs, stats.GPUJobs, stats.CPUJobs),
			Depth: q.depth, Rows: f.tbl.Rows(),
			Span: sp.ID(), Start: start, End: f.at(), Modeled: stats.Modeled,
			Sort: sortRecord(stats),
		})
	}
	return f, nil
}

func (e *Engine) execWindow(n *plan.Window, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	tbl := f.tbl
	ranks := make([]int64, tbl.Rows())
	if tbl.Rows() > 0 {
		// Sort by (partition, order) — the sort the paper says RANK()
		// drives — then walk the order assigning ranks per partition.
		var keys []plan.SortKey
		for _, p := range n.PartitionBy {
			keys = append(keys, plan.SortKey{Column: p})
		}
		keys = append(keys, n.OrderBy...)
		start := f.at()
		sp := f.begin("op", "window-sort")
		perm, stats, err := e.hybridSort(tbl, keys, f, sp)
		if err != nil {
			return nil, err
		}
		sp.End(f.at(), trace.Int("rows", int64(tbl.Rows())))
		f.ops = append(f.ops, OpStat{
			Op: "window-sort", Detail: fmt.Sprintf("rank over %d rows", tbl.Rows()),
			Depth: q.depth, Rows: tbl.Rows(),
			Span: sp.ID(), Start: start, End: f.at(), Modeled: stats.Modeled,
			Sort: sortRecord(stats),
		})

		partKeys, err := encodeSortKeys(tbl, partitionKeys(n), e.cfg.Degree)
		if err != nil {
			return nil, err
		}
		orderKeys, err := encodeSortKeys(tbl, n.OrderBy, e.cfg.Degree)
		if err != nil {
			return nil, err
		}
		rank, pos := int64(0), int64(0)
		for i, r := range perm {
			if i == 0 || string(partKeys[r]) != string(partKeys[perm[i-1]]) {
				rank, pos = 1, 1
			} else {
				pos++
				if string(orderKeys[r]) != string(orderKeys[perm[i-1]]) {
					rank = pos
				}
			}
			ranks[r] = rank
		}
	}
	rb := columnar.NewInt64Builder(n.Out)
	for _, r := range ranks {
		rb.Append(r)
	}
	cols := append([]columnar.Column{}, tbl.Columns()...)
	cols = append(cols, rb.Build())
	out, err := columnar.NewTable(tbl.Name()+"_w", cols...)
	if err != nil {
		return nil, err
	}
	f.tbl = out
	return f, nil
}

func partitionKeys(n *plan.Window) []plan.SortKey {
	keys := make([]plan.SortKey, len(n.PartitionBy))
	for i, p := range n.PartitionBy {
		keys[i] = plan.SortKey{Column: p}
	}
	return keys
}
