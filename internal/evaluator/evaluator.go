// Package evaluator implements the BLU group-by evaluator chain of the
// paper's Figures 1 and 2. The host-side evaluators — LCOG/LCOV (load
// grouping keys and payloads), CCAT (concatenate multi-column keys), HASH
// (hash grouping keys, feeding the KMV group estimator) and MEMCPY (stage
// the vectors into the pinned host segment) — transform a columnar table
// plus a selection into the groupby.Input the kernels consume. The LGHT
// and aggregation evaluators of the original CPU chain live in
// groupby.RunCPU.
package evaluator

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"blugpu/internal/columnar"
	"blugpu/internal/groupby"
	"blugpu/internal/hostmem"
	"blugpu/internal/kmv"
	"blugpu/internal/monitor"
	"blugpu/internal/murmur"
	"blugpu/internal/parallel"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// evalGrain is the minimum rows per worker for the parallel evaluators.
const evalGrain = 1024

// AggColumn is one aggregation request: a function over a column.
// Count with an empty column is COUNT(*); Count with a column is
// rewritten to SUM(col IS NOT NULL) so NULLs are not counted.
type AggColumn struct {
	Kind   groupby.AggKind
	Column string
}

// Spec describes one group-by/aggregation.
type Spec struct {
	// Keys are the grouping columns.
	Keys []string
	// Aggs are the aggregation functions.
	Aggs []AggColumn
}

// Deps carries the chain's environment.
type Deps struct {
	// Model is the cost model (required).
	Model *vtime.CostModel
	// Degree is host parallelism for the evaluators.
	Degree int
	// Monitor receives per-evaluator timings; may be nil.
	Monitor *monitor.Monitor
	// Registry is the pinned host segment for MEMCPY staging; nil or
	// exhausted falls back to unregistered memory (slow transfers).
	Registry *hostmem.Registry
	// Stage selects the GPU-bound chain of Figure 2 (with the MEMCPY
	// evaluator). When false, the chain matches Figure 1's CPU shape: no
	// staging happens and no MEMCPY time is charged. The optimizer picks
	// the chain up front from its estimates.
	Stage bool
	// Trace is the parent span for per-evaluator stage spans
	// (LCOG/CCAT/LCOV/HASH/MEMCPY); the zero value disables them.
	Trace trace.Context
	// TraceAt is the virtual-time offset the chain starts at; stage spans
	// lay out sequentially from here.
	TraceAt vtime.Time
}

// KeyField describes how one grouping column is packed into the key.
type KeyField struct {
	Column string
	Type   columnar.Type
	// BitOffset/Bits locate the field in a narrow packed key.
	BitOffset, Bits int
	// ByteOffset/Bytes locate the field in a wide concatenated key.
	ByteOffset, Bytes int
	// MinI rebases Int64 fields (code = value - MinI) in narrow keys.
	MinI int64
	// Dict decodes String fields.
	Dict *columnar.StringColumn
	// HasNull reports whether a NULL code was reserved (code 0; real
	// codes shift up by one).
	HasNull bool
}

// keyVec is a key field with its column resolved once — the typed vector
// its Type selects and the null bitmap — so key packing runs over slices,
// not column lookups.
type keyVec struct {
	KeyField
	codes  []int32
	ints   []int64
	floats []float64
	nulls  *columnar.Bitmap
}

// Result is the chain's output: a kernel-ready input plus everything
// needed to decode group keys and account the work.
type Result struct {
	// Input is ready for groupby.RunCPU / groupby.RunGPU.
	Input *groupby.Input
	// Fields decode packed keys back into column values.
	Fields []KeyField
	// Staged is the pinned staging block (nil when staging fell back to
	// unregistered memory). The caller releases it after the kernel call.
	Staged *hostmem.Block
	// Pinned reports whether MEMCPY landed in the registered segment.
	Pinned bool
	// Modeled is total host evaluator time (LCOG+LCOV+CCAT+HASH+MEMCPY).
	Modeled vtime.Duration
}

// BuildInput runs the host evaluator chain over the selected rows of tbl.
// sel may be nil to select every row.
func BuildInput(tbl *columnar.Table, sel *columnar.Bitmap, spec Spec, deps Deps) (*Result, error) {
	if deps.Model == nil {
		return nil, errors.New("evaluator: Deps.Model is required")
	}
	// An unset degree means "use the machine", not "run sequentially":
	// the evaluators are the paper's parallel host threads.
	deps.Degree = parallel.Degree(deps.Degree)
	if len(spec.Keys) == 0 {
		return nil, errors.New("evaluator: at least one grouping column required")
	}

	rows := selectedRows(tbl, sel, deps.Degree)
	n := len(rows)
	at := deps.TraceAt
	record := func(name string, nrows int64, d vtime.Duration) {
		if deps.Monitor != nil {
			deps.Monitor.RecordEvaluator(name, nrows, d)
		}
		if deps.Trace.Enabled() {
			deps.Trace.Emit("eval", name, at, d, trace.Int("rows", nrows))
			at = at.Add(d)
		}
	}

	// --- LCOG: load grouping key columns, compute field geometry ---
	vecs, err := planKeyFields(tbl, spec.Keys, deps.Degree)
	if err != nil {
		return nil, err
	}
	fields := make([]KeyField, len(vecs))
	for i := range vecs {
		fields[i] = vecs[i].KeyField
	}
	lcogT := deps.Model.CPUTime(float64(n*len(spec.Keys)), deps.Model.CPUScanRate, deps.Degree)
	record("LCOG", int64(n), lcogT)

	totalBits := 0
	totalBytes := 0
	for _, f := range fields {
		totalBits += f.Bits
		totalBytes += f.Bytes
	}
	wide := totalBits > 63

	in := &groupby.Input{NumRows: n}
	var ccatT vtime.Duration
	// Each worker packs a disjoint row range into preallocated vectors,
	// so parallel CCAT output is bit-identical to the sequential pack;
	// within its range it goes a field at a time over the typed vector.
	if wide {
		in.KeyBytes = totalBytes
		in.WideKeys = make([][]byte, n)
		flat := make([]byte, n*totalBytes)
		parallel.For(n, evalGrain, deps.Degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				in.WideKeys[i] = flat[i*totalBytes : (i+1)*totalBytes]
			}
			for f := range vecs {
				vecs[f].packWide(rows, flat, totalBytes, lo, hi)
			}
		})
		ccatT = deps.Model.CPUTime(float64(n*len(fields)), deps.Model.CPUExprRate, deps.Degree)
	} else {
		in.KeyBytes = 8
		in.KeyBits = totalBits
		in.Keys = make([]uint64, n)
		parallel.For(n, evalGrain, deps.Degree, func(lo, hi, _ int) {
			for f := range vecs {
				vecs[f].packNarrow(rows, in.Keys, lo, hi)
			}
		})
		if len(fields) > 1 {
			ccatT = deps.Model.CPUTime(float64(n*len(fields)), deps.Model.CPUExprRate, deps.Degree)
		}
	}
	record("CCAT", int64(n), ccatT)

	// --- LCOV + aggregation specs ---
	var lcovRows int64
	for _, a := range spec.Aggs {
		aspec, payload, err := buildPayload(tbl, rows, a, deps.Degree)
		if err != nil {
			return nil, err
		}
		in.Aggs = append(in.Aggs, aspec)
		in.Payloads = append(in.Payloads, payload)
		if payload != nil {
			lcovRows += int64(n)
		}
	}
	lcovT := deps.Model.CPUTime(float64(lcovRows), deps.Model.CPUScanRate, deps.Degree)
	record("LCOV", lcovRows, lcovT)

	// --- HASH + KMV ---
	// Each worker hashes its row range into a private KMV sketch; the
	// sketches merge at the end. The union of per-part k-minimum sets
	// contains the global k minima, and merging is order-independent,
	// so the estimate is identical to the sequential sketch's.
	in.Hashes = make([]uint64, n)
	nw := parallel.Workers(n, evalGrain, deps.Degree)
	sketches := make([]*kmv.Sketch, nw)
	for i := range sketches {
		sketches[i] = kmv.MustNew(kmv.DefaultK)
	}
	parallel.For(n, evalGrain, deps.Degree, func(lo, hi, worker int) {
		sk := sketches[worker]
		if wide {
			for i := lo; i < hi; i++ {
				h := murmur.Sum64(in.WideKeys[i], 0x5bd1e995)
				in.Hashes[i] = h
				sk.AddHash(h)
			}
		} else {
			// The HASH evaluator mixes the packed key into a hashed
			// value; the kernel's "mod hash" then maps it onto the
			// table with a mask. Feeding raw packed codes straight to
			// linear probing would cluster catastrophically —
			// dictionary codes are dense and sequential.
			for i := lo; i < hi; i++ {
				h := murmur.Sum64Uint64(in.Keys[i], 0x5bd1e995)
				in.Hashes[i] = h
				sk.AddHash(h)
			}
		}
	})
	sketch := kmv.MustNew(kmv.DefaultK)
	for _, sk := range sketches {
		sketch.Merge(sk)
	}
	in.EstGroups = sketch.EstimateUint64()
	hashT := deps.Model.CPUTime(float64(n), deps.Model.CPUExprRate, deps.Degree)
	record("HASH", int64(n), hashT)

	// --- MEMCPY: stage into the pinned segment (GPU chain only) ---
	res := &Result{Input: in, Fields: fields}
	var memcpyT vtime.Duration
	if deps.Stage {
		stagedBytes := groupby.InputDeviceBytes(in)
		if stagedBytes > 0 {
			if deps.Registry != nil {
				if blk, err := deps.Registry.Alloc(int(stagedBytes)); err == nil {
					stageCopy(blk.Bytes(), in, deps.Degree)
					res.Staged = blk
					res.Pinned = true
				}
			}
			memcpyT = deps.Model.HostCopy(stagedBytes, deps.Degree)
			record("MEMCPY", int64(n), memcpyT)
		}
	}

	res.Modeled = lcogT + ccatT + lcovT + hashT + memcpyT
	return res, nil
}

// DecodeColumn decodes field f of every narrow packed key into a typed
// column named after the grouping column: rebased integers, or dictionary
// codes over the source column's dictionary. NULL rows hold the zero value
// and the bitmap is nil when no key carries the NULL code, exactly as the
// column builders leave them.
func (f KeyField) DecodeColumn(keys []uint64, degree int) columnar.Column {
	return f.decodeCodes(keys, uint(f.BitOffset), uint64(1)<<uint(f.Bits)-1, degree)
}

// DecodeWideColumn decodes field f of keys[perm[i]], for every i, out of
// wide concatenated keys.
func (f KeyField) DecodeWideColumn(keys [][]byte, perm []int32, degree int) columnar.Column {
	codes := make([]uint64, len(perm))
	parallel.For(len(perm), evalGrain, degree, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			seg := keys[perm[i]][f.ByteOffset:]
			if f.Bytes == 4 {
				codes[i] = uint64(binary.LittleEndian.Uint32(seg))
			} else {
				codes[i] = binary.LittleEndian.Uint64(seg)
			}
		}
	})
	return f.decodeCodes(codes, 0, ^uint64(0), degree)
}

// floatNullCode marks NULL in float key fields: a NaN bit pattern that
// arithmetic never produces (quiet NaNs are 0x7FF8...0). Shifting float
// codes like int codes would alias adjacent bit patterns.
const floatNullCode = ^uint64(0)

// decodeCodes decodes (words[i] >> off) & mask, the inverse of packNarrow
// and packWide: workers fill 64-aligned ranges of a typed vector and of
// the shared null bitmap.
func (f KeyField) decodeCodes(words []uint64, off uint, mask uint64, degree int) columnar.Column {
	n := len(words)
	var shift, null uint64
	if f.Type == columnar.Float64 {
		null = floatNullCode
	} else if f.HasNull {
		shift = 1
	}
	var nulls *columnar.Bitmap
	if f.HasNull {
		nulls = columnar.NewBitmap(n)
	}
	// each runs set(i, code) over the non-NULL rows and marks the rest.
	each := func(set func(i int, code uint64)) {
		parallel.For(n, evalGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				if code := words[i] >> off & mask; f.HasNull && code == null {
					nulls.Set(i)
				} else {
					set(i, code-shift)
				}
			}
		})
	}
	switch f.Type {
	case columnar.String:
		codes := make([]int32, n)
		each(func(i int, code uint64) { codes[i] = int32(code) })
		return f.Dict.WithCodes(f.Column, codes, nulls.NilIfEmpty())
	case columnar.Float64:
		data := make([]float64, n)
		each(func(i int, code uint64) { data[i] = math.Float64frombits(code) })
		return columnar.NewFloat64Column(f.Column, data, nulls.NilIfEmpty())
	default:
		data := make([]int64, n)
		each(func(i int, code uint64) { data[i] = int64(code) + f.MinI })
		return columnar.NewInt64Column(f.Column, data, nulls.NilIfEmpty())
	}
}

// --- helpers ---

func selectedRows(tbl *columnar.Table, sel *columnar.Bitmap, degree int) []int32 {
	if sel == nil {
		return columnar.IotaRows(tbl.Rows(), degree)
	}
	return sel.IndicesDegree(degree)
}

// planKeyFields computes per-column packing geometry. Int columns are
// rebased to their min so the code fits the value range; string columns
// use dictionary codes. A NULL code is reserved when the column has nulls.
func planKeyFields(tbl *columnar.Table, keys []string, degree int) ([]keyVec, error) {
	fields := make([]keyVec, 0, len(keys))
	bitOff, byteOff := 0, 0
	for _, name := range keys {
		col := tbl.Column(name)
		if col == nil {
			return nil, fmt.Errorf("evaluator: unknown grouping column %q", name)
		}
		f := keyVec{KeyField: KeyField{Column: name, Type: col.Type(), BitOffset: bitOff, ByteOffset: byteOff}}
		switch c := col.(type) {
		case *columnar.StringColumn:
			f.Dict = c
			f.codes, f.nulls = c.Codes(), c.Nulls()
			f.HasNull = anyNull(f.nulls)
			span := uint64(c.DictSize())
			if f.HasNull {
				span++
			}
			f.Bits = bitsFor(span)
			f.Bytes = 4
		case *columnar.Int64Column:
			f.ints, f.nulls = c.Data(), c.Nulls()
			f.HasNull = anyNull(f.nulls)
			minV, maxV := columnMinMax(c, degree)
			f.MinI = minV
			span := uint64(maxV-minV) + 1
			if f.HasNull {
				span++
			}
			f.Bits = bitsFor(span)
			f.Bytes = 8
		case *columnar.Float64Column:
			f.floats, f.nulls = c.Data(), c.Nulls()
			f.HasNull = anyNull(f.nulls)
			f.Bits = 64 // floats group by raw bits: always the wide path
			f.Bytes = 8
		default:
			return nil, fmt.Errorf("evaluator: unsupported key column type %v", col.Type())
		}
		bitOff += f.Bits
		byteOff += f.Bytes
		fields = append(fields, f)
	}
	return fields, nil
}

// columnMinMax scans for the non-null value range with per-worker
// partial minima/maxima reduced in worker order (min/max are exact and
// commutative, so the result is degree-independent).
func columnMinMax(c *columnar.Int64Column, degree int) (minV, maxV int64) {
	data := c.Data()
	nw := parallel.Workers(len(data), evalGrain, degree)
	mins := make([]int64, nw)
	maxs := make([]int64, nw)
	anys := make([]bool, nw)
	parallel.For(len(data), evalGrain, degree, func(lo, hi, worker int) {
		mn, mx := int64(math.MaxInt64), int64(math.MinInt64)
		any := false
		for i := lo; i < hi; i++ {
			if c.IsNull(i) {
				continue
			}
			any = true
			if v := data[i]; v < mn {
				mn = v
			}
			if v := data[i]; v > mx {
				mx = v
			}
		}
		mins[worker], maxs[worker], anys[worker] = mn, mx, any
	})
	minV, maxV = int64(math.MaxInt64), int64(math.MinInt64)
	any := false
	for w := 0; w < nw; w++ {
		if !anys[w] {
			continue
		}
		any = true
		if mins[w] < minV {
			minV = mins[w]
		}
		if maxs[w] > maxV {
			maxV = maxs[w]
		}
	}
	if !any {
		return 0, 0
	}
	return minV, maxV
}

// anyNull reports whether the bitmap (nil for none) marks any row NULL.
func anyNull(nulls *columnar.Bitmap) bool {
	return nulls != nil && nulls.Count() > 0
}

// codeAt returns field f's code at table row r: the dictionary code, the
// rebased integer or the float's bits, before the NULL shift.
func (f *keyVec) codeAt(r int32) uint64 {
	switch f.Type {
	case columnar.String:
		return uint64(f.codes[r])
	case columnar.Int64:
		return uint64(f.ints[r] - f.MinI)
	default:
		return math.Float64bits(f.floats[r])
	}
}

// packNarrow ORs field f's packed codes for rows[lo:hi] into keys[lo:hi].
// A NULL row contributes code 0; real codes shift up by one when the
// column has NULLs.
func (f *keyVec) packNarrow(rows []int32, keys []uint64, lo, hi int) {
	off := uint(f.BitOffset)
	var shift uint64
	if f.HasNull {
		shift = 1
	}
	for i := lo; i < hi; i++ {
		if r := rows[i]; !f.HasNull || !f.nulls.Get(int(r)) {
			keys[i] |= (f.codeAt(r) + shift) << off
		}
	}
}

// packWide writes field f's fixed-width encoding for rows[lo:hi] into the
// flat wide-key buffer (stride bytes per key, f at ByteOffset). Integer
// and string codes shift up by one when the column has NULLs and NULL is
// code 0; floats keep their bits and NULL is floatNullCode.
func (f *keyVec) packWide(rows []int32, flat []byte, stride, lo, hi int) {
	var shift, null uint64
	if f.Type == columnar.Float64 {
		null = floatNullCode
	} else if f.HasNull {
		shift = 1
	}
	for i := lo; i < hi; i++ {
		r := rows[i]
		code := null
		if !f.HasNull || !f.nulls.Get(int(r)) {
			code = f.codeAt(r) + shift
		}
		dst := flat[i*stride+f.ByteOffset:]
		if f.Bytes == 4 {
			binary.LittleEndian.PutUint32(dst, uint32(code))
		} else {
			binary.LittleEndian.PutUint64(dst, code)
		}
	}
}

// buildPayload materializes one aggregate's payload vector. NULL inputs
// become the aggregate's identity so they cannot affect the result;
// COUNT(col) is rewritten to SUM(0/1).
func buildPayload(tbl *columnar.Table, rows []int32, a AggColumn, degree int) (groupby.AggSpec, []uint64, error) {
	if a.Kind == groupby.Count && a.Column == "" {
		return groupby.AggSpec{Kind: groupby.Count}, nil, nil
	}
	col := tbl.Column(a.Column)
	if col == nil {
		return groupby.AggSpec{}, nil, fmt.Errorf("evaluator: unknown aggregate column %q", a.Column)
	}
	if a.Kind == groupby.Count {
		// COUNT(col): sum 1 for non-null rows.
		payload := make([]uint64, len(rows))
		parallel.For(len(rows), evalGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				if !col.IsNull(int(rows[i])) {
					payload[i] = 1
				}
			}
		})
		return groupby.AggSpec{Kind: groupby.Sum, Type: columnar.Int64}, payload, nil
	}
	spec := groupby.AggSpec{Kind: a.Kind}
	switch col.Type() {
	case columnar.Int64:
		spec.Type = columnar.Int64
	case columnar.Float64:
		spec.Type = columnar.Float64
	default:
		return groupby.AggSpec{}, nil, fmt.Errorf("evaluator: cannot aggregate %v column %q", col.Type(), a.Column)
	}
	identity := spec.InitWord()
	payload := make([]uint64, len(rows))
	parallel.For(len(rows), evalGrain, degree, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			r := int(rows[i])
			if col.IsNull(r) {
				payload[i] = identity
				continue
			}
			switch c := col.(type) {
			case *columnar.Int64Column:
				payload[i] = uint64(c.Int64(r))
			case *columnar.Float64Column:
				payload[i] = math.Float64bits(c.Float64(r))
			}
		}
	})
	return spec, payload, nil
}

// stageCopy writes the kernel input vectors into the pinned block — the
// MEMCPY evaluator's actual byte traffic. Every row's destination offset
// is computable up front (keys, then hashes, then payloads, 8-byte
// words), so workers copy disjoint regions and the staged bytes are
// identical to a sequential copy.
func stageCopy(dst []byte, in *groupby.Input, degree int) {
	put := func(off int, v uint64) {
		if off+8 <= len(dst) {
			binary.LittleEndian.PutUint64(dst[off:], v)
		}
	}
	n := in.NumRows
	off := 0
	if in.Wide() {
		wpk := (in.KeyBytes + 7) / 8 // words per padded wide key
		parallel.For(n, evalGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				k := in.WideKeys[i]
				o := off + i*wpk*8
				for len(k) >= 8 {
					put(o, binary.LittleEndian.Uint64(k))
					k = k[8:]
					o += 8
				}
				if len(k) > 0 {
					var tail [8]byte
					copy(tail[:], k)
					put(o, binary.LittleEndian.Uint64(tail[:]))
				}
			}
		})
		off += n * wpk * 8
	} else {
		parallel.For(n, evalGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				put(off+i*8, in.Keys[i])
			}
		})
		off += n * 8
	}
	parallel.For(n, evalGrain, degree, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			put(off+i*8, in.Hashes[i])
		}
	})
	off += len(in.Hashes) * 8
	for _, p := range in.Payloads {
		p := p
		base := off
		parallel.For(len(p), evalGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				put(base+i*8, p[i])
			}
		})
		off += len(p) * 8
	}
}

func bitsFor(span uint64) int {
	if span <= 1 {
		return 1
	}
	return bits.Len64(span - 1)
}
