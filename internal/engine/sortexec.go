package engine

import (
	"fmt"
	"math"
	"slices"

	"blugpu/internal/bsort"
	"blugpu/internal/columnar"
	"blugpu/internal/explain"
	"blugpu/internal/parallel"
	"blugpu/internal/plan"
	"blugpu/internal/trace"
)

// sortKeyWords extracts binary-sortable keys for the rows of tbl into one
// flat buffer of 4-byte segments, row after row: per sort column the NULL
// flag (NULLs first, over the zero value's encoding), then two segments
// for an int (sign bit flipped) or a float (IEEE total order), or one for
// a dictionary code (the dictionary is sorted, so codes preserve order).
// DESC inverts every segment of its column. offs[i] is key i's first
// segment within a row, offs[len(keys)] the segments per row. Workers
// fill disjoint row ranges a column at a time over the typed vectors, so
// no row owns an allocation.
func sortKeyWords(tbl *columnar.Table, keys []plan.SortKey, degree int) (words []uint32, offs []int, err error) {
	cols := make([]columnar.Column, len(keys))
	offs = make([]int, len(keys)+1)
	for i, k := range keys {
		cols[i] = tbl.Column(k.Column)
		switch cols[i].(type) {
		case nil:
			return nil, nil, fmt.Errorf("engine: unknown sort column %q", k.Column)
		case *columnar.Int64Column, *columnar.Float64Column:
			offs[i+1] = offs[i] + 3
		case *columnar.StringColumn:
			offs[i+1] = offs[i] + 2
		default:
			return nil, nil, fmt.Errorf("engine: cannot sort column type %v", cols[i].Type())
		}
	}
	depth := offs[len(keys)]
	words = make([]uint32, tbl.Rows()*depth)
	parallel.For(tbl.Rows(), exprGrain, degree, func(lo, hi, _ int) {
		for i, col := range cols {
			var inv uint32
			if keys[i].Desc {
				inv = ^uint32(0)
			}
			// put writes row r's flag and its value's 64-bit encoding.
			put := func(r int, null bool, u uint64) {
				w := words[r*depth+offs[i]:]
				if null {
					w[0], u = inv, 1<<63
				} else {
					w[0] = 1 ^ inv
				}
				w[1], w[2] = uint32(u>>32)^inv, uint32(u)^inv
			}
			switch c := col.(type) {
			case *columnar.Int64Column:
				for r, v := range c.Data()[lo:hi] {
					put(lo+r, c.IsNull(lo+r), uint64(v)^(1<<63))
				}
			case *columnar.Float64Column:
				for r, v := range c.Data()[lo:hi] {
					u := math.Float64bits(v)
					if u>>63 == 1 {
						u = ^u // negative: flip all
					} else {
						u |= 1 << 63 // positive: flip sign
					}
					put(lo+r, c.IsNull(lo+r), u)
				}
			case *columnar.StringColumn:
				for r, code := range c.Codes()[lo:hi] {
					w := words[(lo+r)*depth+offs[i]:]
					if c.IsNull(lo + r) {
						w[0], w[1] = inv, inv
					} else {
						w[0], w[1] = 1^inv, uint32(code)^inv
					}
				}
			}
		}
	})
	return words, offs, nil
}

// hybridSort sorts the rows behind src through the hybrid job-queue sort
// and returns the permutation plus the sort stats. op is the operator
// span the per-job sort spans hang off.
func (e *Engine) hybridSort(src *bsort.FlatKeySource, f *frame, op trace.Context) ([]int32, bsort.Stats, error) {
	rows := src.NumRows()

	// Stage the partial key buffer in the registered segment when it
	// fits, for fast transfers.
	pinned := false
	if e.registry != nil && rows > 0 {
		if blk, err := e.registry.Alloc(rows * 16); err == nil {
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
		if len(e.devices) > 1 && rows >= 2*threshold {
			cfg.Partitions = len(e.devices) * 2
		}
	}
	perm, stats, err := bsort.Sort(src, cfg)
	if err != nil {
		return nil, stats, err
	}
	e.addCPU(f, stats.KeyGen+stats.CPUTime)
	if stats.GPUTime > 0 {
		e.addGPU(f, stats.GPUTime, int64(rows)*16)
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
		words, offs, err := sortKeyWords(f.tbl, n.Keys, e.cfg.Degree)
		if err != nil {
			return nil, err
		}
		perm, stats, err := e.hybridSort(bsort.NewFlatKeySource(words, f.tbl.Rows(), offs[len(n.Keys)]), f, sp)
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
		// drives — then walk the order assigning ranks per partition over
		// the key buffer the sort was served from.
		var keys []plan.SortKey
		for _, p := range n.PartitionBy {
			keys = append(keys, plan.SortKey{Column: p})
		}
		keys = append(keys, n.OrderBy...)
		start := f.at()
		sp := f.begin("op", "window-sort")
		words, offs, err := sortKeyWords(tbl, keys, e.cfg.Degree)
		if err != nil {
			return nil, err
		}
		depth, partDepth := offs[len(keys)], offs[len(n.PartitionBy)]
		perm, stats, err := e.hybridSort(bsort.NewFlatKeySource(words, tbl.Rows(), depth), f, sp)
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

		rank, pos := int64(0), int64(0)
		var prev []uint32
		for _, r := range perm {
			cur := words[int(r)*depth : (int(r)+1)*depth]
			if prev == nil || !slices.Equal(cur[:partDepth], prev[:partDepth]) {
				rank, pos = 1, 1
			} else {
				pos++
				if !slices.Equal(cur[partDepth:], prev[partDepth:]) {
					rank = pos
				}
			}
			ranks[r] = rank
			prev = cur
		}
	}
	cols := append([]columnar.Column{}, tbl.Columns()...)
	cols = append(cols, columnar.NewInt64Column(n.Out, ranks, nil))
	out, err := columnar.NewTable(tbl.Name()+"_w", cols...)
	if err != nil {
		return nil, err
	}
	f.tbl = out
	return f, nil
}
