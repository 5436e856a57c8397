// Package evaluator implements the BLU group-by evaluator chain of the
// paper's Figures 1 and 2. The host-side evaluators — LCOG/LCOV (load
// grouping keys and payloads), CCAT (concatenate multi-column keys), HASH
// (hash grouping keys, feeding the KMV group estimator) and MEMCPY (stage
// the vectors into the pinned host segment) — transform a relation whose
// columns are each read through a row list (a columnar.Source) into the
// groupby.Input the kernels consume. The LGHT
// and aggregation evaluators of the original CPU chain live in
// groupby.RunCPU.
//
// MEMCPY takes the staged bytes' block from the pinned segment — that is
// what makes the upload pinned — and models the host copy's time; no
// bytes move, since the kernels read the vectors in place.
//
// BuildInput does every evaluator's work in one pass and charges none of
// it: it reports each evaluator's time, and the caller charges (Charge)
// the evaluators whose output the path it takes reads.
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

// hashGrain is the minimum rows per HASH+KMV worker. Each worker fills a
// sketch of its own and the sketches merge serially, so the grain is
// coarse: a few hundred thousand rows make a handful of sketches, not one
// per degree. Like every grain it fixes the split by rows and degree only.
const hashGrain = 1 << 15

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
	// Registry is the pinned host segment for MEMCPY staging; nil or
	// exhausted stages unpinned (slow transfers).
	Registry *hostmem.Registry
	// Stage selects the GPU-bound chain of Figure 2 (with the MEMCPY
	// evaluator). When false, the chain matches Figure 1's CPU shape: no
	// staging happens and no MEMCPY runs. The optimizer picks the chain
	// up front from its estimates.
	Stage bool
}

// Eval is one evaluator's work: the rows it read and its modeled time.
type Eval struct {
	Name    string
	Rows    int64
	Modeled vtime.Duration
}

// Charge records evals, in order, with the monitor (nil for none) and as
// "eval" spans under tc laid out one after another from at, and returns
// their time summed in that order.
func Charge(mon *monitor.Monitor, tc trace.Context, at vtime.Time, evals ...Eval) vtime.Duration {
	var total vtime.Duration
	for _, ev := range evals {
		if mon != nil {
			mon.RecordEvaluator(ev.Name, ev.Rows, ev.Modeled)
		}
		if tc.Enabled() {
			tc.Emit("eval", ev.Name, at, ev.Modeled, trace.Int("rows", ev.Rows))
			at = at.Add(ev.Modeled)
		}
		total += ev.Modeled
	}
	return total
}

// KeyField describes how one grouping column is packed into the key.
type KeyField struct {
	Column string
	Type   columnar.Type
	// BitOffset/Bits locate the field in a row's little-endian key words.
	// A narrow key packs each field in its codes' width; a wide one gives
	// a dictionary code 32 bits and any other field 64, byte-aligned, so
	// a field may straddle two words. A wide key whose first field is a
	// 64-bit int starts with a zero byte.
	BitOffset, Bits int
	// MinI rebases Int64 fields (code = value - MinI).
	MinI int64
	// Dict decodes String fields.
	Dict *columnar.StringColumn
	// HasNull reports whether a NULL code was reserved (code 0; real
	// codes shift up by one).
	HasNull bool
}

// keyVec is a key field with its column resolved once — the typed vector
// its Type selects, the null bitmap and the row list it is read through —
// so key packing runs over slices, not column lookups.
type keyVec struct {
	KeyField
	rows   []int32
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
	// Staged is the pinned staging block (nil when staging went
	// unpinned). The caller releases it after the kernel call.
	Staged *hostmem.Block
	// Pinned reports whether MEMCPY landed in the registered segment.
	Pinned bool
	// LCOG, CCAT, LCOV and HASH (with the KMV sketch) are the evaluators
	// every chain runs. MEMCPY is the staging copy, the zero Eval when the
	// chain staged nothing.
	LCOG, CCAT, LCOV, HASH, MEMCPY Eval
}

// Chain returns the evaluators that ran, in chain order: LCOG, CCAT,
// LCOV, HASH, then MEMCPY when the chain staged bytes.
func (r *Result) Chain() []Eval {
	evals := []Eval{r.LCOG, r.CCAT, r.LCOV, r.HASH}
	if r.MEMCPY.Name != "" {
		evals = append(evals, r.MEMCPY)
	}
	return evals
}

// Keys returns the key evaluators, LCOG, CCAT and HASH: the host work a
// fused chain that fills overlaps, and that one whose entry is resident
// builds on the device instead.
func (r *Result) Keys() []Eval { return []Eval{r.LCOG, r.CCAT, r.HASH} }

// Loads returns the payload evaluators, LCOV then MEMCPY when the chain
// staged bytes: what a path that reads host payload vectors adds to Keys.
func (r *Result) Loads() []Eval {
	if r.MEMCPY.Name == "" {
		return []Eval{r.LCOV}
	}
	return []Eval{r.LCOV, r.MEMCPY}
}

// BuildInput runs the host evaluator chain over src, each column read
// through its own row list. The input, the key geometry and the estimate
// are exactly those of the chain over a table gathered from src. It
// charges nothing: the Result reports each evaluator's time.
func BuildInput(src columnar.Source, spec Spec, deps Deps) (*Result, error) {
	if deps.Model == nil {
		return nil, errors.New("evaluator: Deps.Model is required")
	}
	// An unset degree means "use the machine", not "run sequentially":
	// the evaluators are the paper's parallel host threads.
	deps.Degree = parallel.Degree(deps.Degree)
	if len(spec.Keys) == 0 {
		return nil, errors.New("evaluator: at least one grouping column required")
	}

	n := src.Len()
	res := &Result{}
	// --- LCOG: load grouping key columns, compute field geometry ---
	vecs, err := planKeyFields(src, spec.Keys, deps.Degree)
	if err != nil {
		return nil, err
	}
	res.LCOG = Eval{"LCOG", int64(n), deps.Model.CPUTime(float64(n*len(spec.Keys)), deps.Model.CPUScanRate, deps.Degree)}

	keyBits := 0
	for _, f := range vecs {
		keyBits += f.Bits
	}
	// A key that needs all 64 bits cannot be packed narrow: every code
	// would have to differ from the table's empty sentinel. It is laid
	// out wide instead, and KeyBits over 63 is what selects the wide path.
	// There, a leading int field of 64 bits could still code as all ones
	// (one spanning MinInt64 to MaxInt64 does), so it starts after a zero
	// byte and the first word stays below the sentinel.
	wide := keyBits > 63
	if wide {
		keyBits = 0
		if vecs[0].Type == columnar.Int64 && vecs[0].Bits == 64 {
			keyBits = 8
		}
		for f := range vecs {
			vecs[f].BitOffset, vecs[f].Bits = keyBits, 64
			if vecs[f].Type == columnar.String {
				vecs[f].Bits = 32
			}
			keyBits += vecs[f].Bits
		}
	}
	fields := make([]KeyField, len(vecs))
	for i := range vecs {
		fields[i] = vecs[i].KeyField
	}

	in := &groupby.Input{NumRows: n, KeyBytes: 8, KeyBits: keyBits}
	if wide {
		in.KeyBytes = keyBits / 8
	}
	kw := in.KeyWords()
	// Each worker packs a disjoint row range into the preallocated words,
	// so parallel CCAT output is bit-identical to the sequential pack;
	// within its range it goes a field at a time over the typed vector.
	in.Keys = make([]uint64, n*kw)
	parallel.For(n, evalGrain, deps.Degree, func(lo, hi, _ int) {
		for f := range vecs {
			vecs[f].pack(in.Keys, kw, lo, hi)
		}
	})
	var ccatT vtime.Duration
	if wide || len(fields) > 1 {
		ccatT = deps.Model.CPUTime(float64(n*len(fields)), deps.Model.CPUExprRate, deps.Degree)
	}
	res.CCAT = Eval{"CCAT", int64(n), ccatT}

	// --- LCOV + aggregation specs ---
	var lcovRows int64
	for _, a := range spec.Aggs {
		aspec, payload, err := buildPayload(src, n, a, deps.Degree)
		if err != nil {
			return nil, err
		}
		in.Aggs = append(in.Aggs, aspec)
		in.Payloads = append(in.Payloads, payload)
		if payload != nil {
			lcovRows += int64(n)
		}
	}
	res.LCOV = Eval{"LCOV", lcovRows, deps.Model.CPUTime(float64(lcovRows), deps.Model.CPUScanRate, deps.Degree)}

	// --- HASH + KMV ---
	// Each worker hashes its row range into a private KMV sketch; the
	// sketches merge at the end. The union of per-part k-minimum sets
	// contains the global k minima, and merging is order-independent,
	// so the estimate is identical to the sequential sketch's.
	in.Hashes = make([]uint64, n)
	sketches := make([]*kmv.Sketch, parallel.Workers(n, hashGrain, deps.Degree))
	parallel.For(n, hashGrain, deps.Degree, func(lo, hi, worker int) {
		sk := kmv.MustNew(kmv.DefaultK)
		sketches[worker] = sk
		if wide {
			// Murmur over the key's KeyBytes little-endian bytes.
			buf := make([]byte, 8*kw)
			for i := lo; i < hi; i++ {
				for j, w := range in.Keys[i*kw : (i+1)*kw] {
					binary.LittleEndian.PutUint64(buf[8*j:], w)
				}
				h := murmur.Sum64(buf[:in.KeyBytes], 0x5bd1e995)
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
	if len(sketches) > 0 {
		for _, sk := range sketches[1:] {
			sketches[0].Merge(sk)
		}
		in.EstGroups = sketches[0].EstimateUint64()
	}
	res.HASH = Eval{"HASH", int64(n), deps.Model.CPUTime(float64(n), deps.Model.CPUExprRate, deps.Degree)}

	// --- MEMCPY: stage into the pinned segment (GPU chain only) ---
	res.Input, res.Fields = in, fields
	if deps.Stage {
		stagedBytes := groupby.InputDeviceBytes(in)
		if stagedBytes > 0 {
			if deps.Registry != nil {
				if blk, err := deps.Registry.Alloc(int(stagedBytes)); err == nil {
					res.Staged = blk
					res.Pinned = true
				}
			}
			res.MEMCPY = Eval{"MEMCPY", int64(n), deps.Model.HostCopy(stagedBytes, deps.Degree)}
		}
	}
	return res, nil
}

// DecodeColumn decodes field f of every key — kw words a key — into a
// typed column named after the grouping column: rebased integers, float
// bits, or dictionary codes over the source column's dictionary. NULL rows
// hold the zero value and the bitmap is nil when no key carries the NULL
// code, exactly as the column builders leave them. Workers fill 64-aligned
// ranges of the vector and of the shared null bitmap.
func (f KeyField) DecodeColumn(keys []uint64, kw, degree int) columnar.Column {
	n := len(keys) / kw
	word, off := f.BitOffset/64, uint(f.BitOffset%64)
	straddles, mask := off+uint(f.Bits) > 64, ^uint64(0)>>(64-f.Bits)
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
				code := keys[i*kw+word] >> off
				if straddles {
					code |= keys[i*kw+word+1] << (64 - off)
				}
				if code &= mask; f.HasNull && code == null {
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

// Float key fields code a value as its bits, with -0 folded into +0's
// code and every NaN into floatNaNCode (NaNs group together);
// floatNullCode, another NaN pattern no value then codes as, marks NULL.
// Shifting float codes like int codes would alias adjacent bit patterns. Neither code is all ones, so a
// leading float field never makes a wide key's first word the device
// table's empty sentinel.
const (
	floatNaNCode  = 0x7FF8000000000001
	floatNullCode = 0xFFF8000000000001
)

// --- helpers ---

// at is the table row behind position i of a selection: rows[i], or i
// itself when rows is nil and every row is selected.
func at(rows []int32, i int) int {
	if rows == nil {
		return i
	}
	return int(rows[i])
}

// planKeyFields computes per-column narrow packing geometry over the rows
// each key column's list selects, exactly as over a column gathered from
// them. Int columns are rebased to their min so the code fits the value
// range; string columns use dictionary codes. A NULL code is reserved when
// a selected row is NULL.
func planKeyFields(src columnar.Source, keys []string, degree int) ([]keyVec, error) {
	fields := make([]keyVec, 0, len(keys))
	bitOff := 0
	for _, name := range keys {
		col, rows := src.Listed(name)
		if col == nil {
			return nil, fmt.Errorf("evaluator: unknown grouping column %q", name)
		}
		f := keyVec{KeyField: KeyField{Column: name, Type: col.Type(), BitOffset: bitOff}, rows: rows}
		switch c := col.(type) {
		case *columnar.StringColumn:
			f.Dict = c
			f.codes, f.nulls = c.Codes(), c.Nulls()
			f.HasNull = columnar.AnyNull(f.nulls, rows, degree)
			span := uint64(c.DictSize())
			if f.HasNull {
				span++
			}
			f.Bits = bitsFor(span)
		case *columnar.Int64Column:
			f.ints, f.nulls = c.Data(), c.Nulls()
			f.HasNull = columnar.AnyNull(f.nulls, rows, degree)
			minV, maxV := columnMinMax(c, rows, degree)
			f.MinI = minV
			top := uint64(maxV - minV) // the largest code before the NULL shift
			if f.HasNull {
				if top == math.MaxUint64 {
					return nil, fmt.Errorf("evaluator: grouping column %q spans every int64 value and holds NULL", name)
				}
				top++
			}
			f.Bits = max(bits.Len64(top), 1)
		case *columnar.Float64Column:
			f.floats, f.nulls = c.Data(), c.Nulls()
			f.HasNull = columnar.AnyNull(f.nulls, rows, degree)
			f.Bits = 64 // floats group by raw bits: always the wide path
		default:
			return nil, fmt.Errorf("evaluator: unsupported key column type %v", col.Type())
		}
		bitOff += f.Bits
		fields = append(fields, f)
	}
	return fields, nil
}

// columnMinMax scans the selected rows for the non-null value range with
// per-worker partial minima/maxima reduced in worker order (min/max are
// exact and commutative, so the result is degree-independent).
func columnMinMax(c *columnar.Int64Column, rows []int32, degree int) (minV, maxV int64) {
	data := c.Data()
	n := len(data)
	if rows != nil {
		n = len(rows)
	}
	nw := parallel.Workers(n, evalGrain, degree)
	mins := make([]int64, nw)
	maxs := make([]int64, nw)
	anys := make([]bool, nw)
	parallel.For(n, evalGrain, degree, func(lo, hi, worker int) {
		mn, mx := int64(math.MaxInt64), int64(math.MinInt64)
		any := false
		for i := lo; i < hi; i++ {
			r := at(rows, i)
			if c.IsNull(r) {
				continue
			}
			any = true
			if v := data[r]; v < mn {
				mn = v
			}
			if v := data[r]; v > mx {
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

// codeAt returns field f's code at table row r: the dictionary code, the
// rebased integer or the float's code, before the NULL shift.
func (f *keyVec) codeAt(r int) uint64 {
	switch f.Type {
	case columnar.String:
		return uint64(f.codes[r])
	case columnar.Int64:
		return uint64(f.ints[r] - f.MinI)
	default:
		switch v := f.floats[r]; {
		case math.IsNaN(v):
			return floatNaNCode
		case v == 0:
			return 0 // -0 groups with +0, as f = 0 selects both
		default:
			return math.Float64bits(v)
		}
	}
}

// pack ORs field f's code for selection positions [lo, hi) into the key
// words, kw a row, at the field's bits. Integer and string codes shift up
// by one when the column has NULLs and NULL is code 0; floats keep their
// code and NULL is floatNullCode.
func (f *keyVec) pack(keys []uint64, kw, lo, hi int) {
	rows := f.rows
	word, off := f.BitOffset/64, uint(f.BitOffset%64)
	straddles := off+uint(f.Bits) > 64
	var shift, null uint64
	if f.Type == columnar.Float64 {
		null = floatNullCode
	} else if f.HasNull {
		shift = 1
	}
	for i := lo; i < hi; i++ {
		r := at(rows, i)
		code := null
		if !f.HasNull || !f.nulls.Get(r) {
			code = f.codeAt(r) + shift
		}
		keys[i*kw+word] |= code << off
		if straddles {
			keys[i*kw+word+1] |= code >> (64 - off)
		}
	}
}

// buildPayload materializes one aggregate's payload vector over the n
// places of src, reading its column through the column's list. NULL
// inputs become the aggregate's identity so they cannot affect the
// result; COUNT(col) is rewritten to SUM(0/1).
func buildPayload(src columnar.Source, n int, a AggColumn, degree int) (groupby.AggSpec, []uint64, error) {
	if a.Kind == groupby.Count && a.Column == "" {
		return groupby.AggSpec{Kind: groupby.Count}, nil, nil
	}
	col, rows := src.Listed(a.Column)
	if col == nil {
		return groupby.AggSpec{}, nil, fmt.Errorf("evaluator: unknown aggregate column %q", a.Column)
	}
	if a.Kind == groupby.Count {
		// COUNT(col): sum 1 for non-null rows.
		payload := make([]uint64, n)
		parallel.For(n, evalGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				if !col.IsNull(at(rows, i)) {
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
	payload := make([]uint64, n)
	switch c := col.(type) {
	case *columnar.Int64Column:
		data, nulls := c.Data(), c.Nulls()
		parallel.For(n, evalGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				if r := at(rows, i); nulls != nil && nulls.Get(r) {
					payload[i] = identity
				} else {
					payload[i] = uint64(data[r])
				}
			}
		})
	case *columnar.Float64Column:
		data, nulls := c.Data(), c.Nulls()
		parallel.For(n, evalGrain, degree, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				if r := at(rows, i); nulls != nil && nulls.Get(r) {
					payload[i] = identity
				} else {
					payload[i] = math.Float64bits(data[r])
				}
			}
		})
	}
	return spec, payload, nil
}

func bitsFor(span uint64) int {
	if span <= 1 {
		return 1
	}
	return bits.Len64(span - 1)
}
