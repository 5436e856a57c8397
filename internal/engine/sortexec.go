package engine

import (
	"fmt"
	"math"
	"slices"

	"blugpu/internal/bsort"
	"blugpu/internal/columnar"
	"blugpu/internal/explain"
	"blugpu/internal/gpu"
	"blugpu/internal/parallel"
	"blugpu/internal/plan"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// sortKeyWords extracts binary-sortable keys for the places of src, each
// sort column read through its own row list, into one flat buffer of
// 4-byte segments, place after place: per sort column the NULL flag (NULLs
// first, over the zero value's encoding) when a listed row is NULL, then
// two segments for an int (sign bit flipped) or a float (IEEE total
// order), or one for a dictionary code (the dictionary is sorted, so codes
// preserve order). A column with no NULL gets no flag: it would be the
// same for every row, so the order is the same without it, and a radix
// sort spends no pass on it. DESC inverts every segment of its column.
// offs[i] is key i's first segment within a row, offs[len(keys)] the
// segments per row. Workers fill disjoint row ranges a column at a time
// over the typed vectors, so no row owns an allocation.
func sortKeyWords(src columnar.Source, keys []plan.SortKey, degree int) (words []uint32, offs []int, err error) {
	cols := make([]columnar.Column, len(keys))
	lists := make([][]int32, len(keys))
	flagged := make([]bool, len(keys))
	offs = make([]int, len(keys)+1)
	for i, k := range keys {
		cols[i], lists[i] = src.Listed(k.Column)
		var nulls *columnar.Bitmap
		width := 2
		switch c := cols[i].(type) {
		case nil:
			return nil, nil, fmt.Errorf("engine: unknown sort column %q", k.Column)
		case *columnar.Int64Column:
			nulls = c.Nulls()
		case *columnar.Float64Column:
			nulls = c.Nulls()
		case *columnar.StringColumn:
			nulls, width = c.Nulls(), 1
		default:
			return nil, nil, fmt.Errorf("engine: cannot sort column type %v", cols[i].Type())
		}
		if flagged[i] = columnar.AnyNull(nulls, lists[i], degree); flagged[i] {
			width++
		}
		offs[i+1] = offs[i] + width
	}
	depth, n := offs[len(keys)], src.Len()
	words = make([]uint32, n*depth)
	parallel.For(n, exprGrain, degree, func(lo, hi, _ int) {
		for i, col := range cols {
			rows := lists[i]
			var inv uint32
			if keys[i].Desc {
				inv = ^uint32(0)
			}
			// put writes position p's flag, when the column carries one, and
			// its value's 64-bit encoding, the zero value's for a NULL row.
			// A column without a flag lists no NULL row.
			flag, base := flagged[i], offs[i]
			put := func(p int, null bool, u uint64) {
				at := p*depth + base
				if flag {
					if null {
						words[at], u = inv, 1<<63
					} else {
						words[at] = 1 ^ inv
					}
					at++
				}
				words[at], words[at+1] = uint32(u>>32)^inv, uint32(u)^inv
			}
			switch c := col.(type) {
			case *columnar.Int64Column:
				data := c.Data()
				for p := lo; p < hi; p++ {
					r := p
					if rows != nil {
						r = int(rows[p])
					}
					put(p, c.IsNull(r), uint64(data[r])^(1<<63))
				}
			case *columnar.Float64Column:
				data := c.Data()
				for p := lo; p < hi; p++ {
					r := p
					if rows != nil {
						r = int(rows[p])
					}
					u := math.Float64bits(data[r])
					if u>>63 == 1 {
						u = ^u // negative: flip all
					} else {
						u |= 1 << 63 // positive: flip sign
					}
					put(p, c.IsNull(r), u)
				}
			case *columnar.StringColumn:
				codes := c.Codes()
				for p := lo; p < hi; p++ {
					r := p
					if rows != nil {
						r = int(rows[p])
					}
					at, code := p*depth+base, uint32(codes[r])
					if flag {
						if c.IsNull(r) {
							words[at], code = inv, 0
						} else {
							words[at] = 1 ^ inv
						}
						at++
					}
					words[at] = code ^ inv
				}
			}
		}
	})
	return words, offs, nil
}

// hybridSort sorts the rows behind src through the hybrid job-queue sort
// and returns the permutation and the sort stats. It charges the query
// stats.Modeled — key generation, then host sorting and the busiest
// device's time overlapped, as the job queue runs them — and then any
// retry backoff its GPU jobs waited: key generation and the host sorting
// the device does not hide, then the device's time. op is the operator
// span the per-job sort spans hang off; each GPU job runs through
// onDevice.
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
		Trace:        op,
		TraceBase:    f.at(),
	}
	var waited vtime.Duration
	if e.GPUEnabled() {
		cfg.Device = func(tc trace.Context, at vtime.Time, demand int64, run func(*gpu.Reservation) error) (int, error) {
			var off vtime.Duration
			info, err := e.onDevice(tc, at, &off, devCall{
				op: "sort", span: func(n int) string { return fmt.Sprintf("gpu-sort attempt %d", n) }, demand: demand,
				run: func(res *gpu.Reservation) ([]trace.Attr, error) { return nil, run(res) },
			})
			waited += info.backoff
			if err != nil {
				e.fallback("sort", tc, err)
				return -1, err
			}
			return info.devices[len(info.devices)-1], nil
		}
		if len(e.devices) > 1 && rows >= 2*cfg.GPUThreshold {
			cfg.Partitions = len(e.devices) * 2
		}
	}
	perm, stats, err := bsort.Sort(src, cfg)
	if err != nil {
		return nil, stats, err
	}
	e.addCPU(f, stats.KeyGen+max(stats.CPUTime-stats.GPUTime, 0))
	e.addGPU(f, stats.GPUTime, int64(rows)*16)
	f.modeled += waited
	return perm, stats, nil
}

// sortRecord converts bsort stats to the operator row's shape.
func sortRecord(stats bsort.Stats) *explain.SortReport {
	return &explain.SortReport{
		Jobs: stats.Jobs, GPUJobs: stats.GPUJobs, CPUJobs: stats.CPUJobs,
		Requeues: stats.Requeues, Fallbacks: stats.Fallbacks, MaxDepth: stats.MaxDepth,
	}
}

func (e *Engine) execSort(n *plan.Sort, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	if rows := f.Len(); rows > 1 {
		start := f.at()
		row := f.open("sort", q.depth)
		words, offs, err := sortKeyWords(f, n.Keys, e.cfg.Degree)
		if err != nil {
			return row.fail(err)
		}
		src := bsort.NewFlatKeySource(words, rows, offs[len(n.Keys)])
		var perm []int32
		var stats bsort.Stats
		detail := ""
		if k, depth := n.K, src.MaxDepth(); k > 0 && k < rows &&
			bsort.TopKCost(e.model, rows, k, depth, e.cfg.Degree) < bsort.HostSortCost(e.model, rows, depth, e.cfg.Degree) {
			// LIMIT k directly above: select the first k rows of the same
			// order — keys, then row id — and order only those, one host
			// job.
			perm = bsort.TopK(src, k, e.cfg.Degree)
			sortT := bsort.TopKCost(e.model, rows, k, depth, e.cfg.Degree)
			e.addCPU(f, sortT)
			row.sp.Emit("sort-job", "job depth=0", start, sortT, trace.Str("path", "cpu-topk"), trace.Int("rows", int64(rows)))
			stats = bsort.Stats{Rows: rows, Jobs: 1, CPUJobs: 1}
			detail = fmt.Sprintf("top-k %d of %d", k, rows)
		} else {
			if perm, stats, err = e.hybridSort(src, f, row.sp); err != nil {
				return row.fail(err)
			}
			detail = fmt.Sprintf("jobs=%d gpu=%d cpu=%d", stats.Jobs, stats.GPUJobs, stats.CPUJobs)
		}
		row.close(len(perm), detail, trace.Int("rows", int64(rows)),
			trace.Int("jobs", int64(stats.Jobs)), trace.Int("gpu-jobs", int64(stats.GPUJobs))).Sort = sortRecord(stats)
		// The sort's output is its permutation composed with every part's
		// list: the paper's tuples stay where they are, and only the first
		// rows a limit keeps are ever copied. No key fixes the lists then.
		composeParts(f.parts, perm, e.cfg.Degree)
		for i := range f.parts {
			f.parts[i].steps = nil
		}
	}
	return f, nil
}

func (e *Engine) execWindow(n *plan.Window, q qctx) (*frame, error) {
	f, err := e.execInput(n.Input, q.deeper())
	if err != nil {
		return nil, err
	}
	ranks := make([]int64, f.Len())
	if f.Len() > 0 {
		// Sort by (partition, order) — the sort the paper says RANK()
		// drives — then walk the order assigning ranks per partition over
		// the key buffer the sort was served from.
		var keys []plan.SortKey
		for _, p := range n.PartitionBy {
			keys = append(keys, plan.SortKey{Column: p})
		}
		keys = append(keys, n.OrderBy...)
		row := f.open("window-sort", q.depth)
		e.materialize(f)
		tbl := f.table()
		words, offs, err := sortKeyWords(f, keys, e.cfg.Degree)
		if err != nil {
			return row.fail(err)
		}
		depth, partDepth := offs[len(keys)], offs[len(n.PartitionBy)]
		perm, stats, err := e.hybridSort(bsort.NewFlatKeySource(words, tbl.Rows(), depth), f, row.sp)
		if err != nil {
			return row.fail(err)
		}
		row.close(tbl.Rows(), fmt.Sprintf("rank over %d rows", tbl.Rows()),
			trace.Int("rows", int64(tbl.Rows()))).Sort = sortRecord(stats)

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
	e.materialize(f) // lined up above, unless there were no rows to copy
	tbl := f.table()
	cols := append([]columnar.Column{}, tbl.Columns()...)
	cols = append(cols, columnar.NewInt64Column(n.Out, ranks, nil))
	out, err := columnar.NewTable(tbl.Name()+"_w", cols...)
	if err != nil {
		return nil, err
	}
	f.setTable(out)
	return f, nil
}
