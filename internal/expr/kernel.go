package expr

import (
	"fmt"
	"math/bits"

	"blugpu/internal/columnar"
	"blugpu/internal/parallel"
)

// kernelGrain is the minimum rows per worker: a typed kernel spends about
// a nanosecond a row, so smaller ranges cost more to hand off than to scan.
const kernelGrain = 8192

// A predFn evaluates a boolean node over rows [lo, hi), lo a multiple of
// 64, overwriting the (hi-lo+63)/64 words of t (row is TRUE) and n (row is
// NULL); a row set in neither is FALSE and none is set in both. Bits past
// hi in the last word are unspecified; the entry points trim them.
type predFn func(lo, hi int, t, n []uint64)

// A vecFn evaluates a value node over rows [lo, hi): it overwrites n with
// the null mask and returns the hi-lo values, in dst when dst is non-nil,
// else in fresh storage or — for a bare column — the column's own vector,
// which the caller must not write. Values under NULL rows are unspecified.
type vecFn[T any] func(lo, hi int, dst []T, n []uint64) []T

// bound is one expression node bound to a table's concrete columns.
// Exactly one of the evaluation forms is set.
type bound struct {
	typ    columnar.Type
	pred   predFn                 // boolean node; as a value it is Int64 1/0/NULL
	lit    *columnar.Value        // constant
	str    *columnar.StringColumn // string column; strings have no operators
	ints   vecFn[int64]
	floats vecFn[float64]
}

// EvalPredicate evaluates pred over every row of tbl and returns the
// selection bitmap: rows where it is TRUE (FALSE and NULL are excluded,
// per SQL WHERE). Disjoint 64-aligned row ranges run on the worker pool,
// each writing only its own words, so the result is identical at any
// degree; degree 1 runs inline and is the sequential form.
func EvalPredicate(tbl *columnar.Table, pred Expr, degree int) (*columnar.Bitmap, error) {
	b, err := bindRoot(pred, tbl)
	if err != nil {
		return nil, err
	}
	p, rows := b.asPred(), tbl.Rows()
	sel := columnar.NewBitmap(rows)
	t := sel.Words()
	parallel.For(rows, kernelGrain, degree, func(lo, hi, _ int) {
		tw := t[lo>>6 : (hi+63)>>6]
		p(lo, hi, tw, make([]uint64, len(tw)))
		trimTail(tw, hi-lo)
	})
	return sel, nil
}

// EvalColumn computes ex for every row of tbl into a typed column named
// name. NULL rows hold the zero value and the null bitmap is nil when no
// row is NULL, exactly as the column builders leave them.
func EvalColumn(tbl *columnar.Table, name string, ex Expr, degree int) (columnar.Column, error) {
	b, err := bindRoot(ex, tbl)
	if err != nil {
		return nil, err
	}
	rows := tbl.Rows()
	switch b.typ {
	case columnar.Int64:
		data, nulls := materialize(b.asInts(), rows, degree)
		return columnar.NewInt64Column(name, data, nulls), nil
	case columnar.Float64:
		data, nulls := materialize(b.asFloats(), rows, degree)
		return columnar.NewFloat64Column(name, data, nulls), nil
	}
	// A string expression is a column or a literal; the builder re-encodes
	// the dictionary down to the values present.
	sb := columnar.NewStringBuilder(name)
	for i := 0; i < rows; i++ {
		switch {
		case b.lit != nil && !b.lit.Null:
			sb.Append(b.lit.S)
		case b.lit != nil || b.str.IsNull(i):
			sb.AppendNull()
		default:
			sb.Append(b.str.Decode(b.str.Code(i)))
		}
	}
	return sb.Build(), nil
}

func materialize[T any](vec vecFn[T], rows, degree int) ([]T, *columnar.Bitmap) {
	data := make([]T, rows)
	nulls := columnar.NewBitmap(rows)
	nw := nulls.Words()
	parallel.For(rows, kernelGrain, degree, func(lo, hi, _ int) {
		n := nw[lo>>6 : (hi+63)>>6]
		vec(lo, hi, data[lo:hi], n)
		trimTail(n, hi-lo)
		var zero T
		for w, word := range n {
			for ; word != 0; word &= word - 1 {
				data[lo+w*64+bits.TrailingZeros64(word)] = zero
			}
		}
	})
	if nulls.Count() == 0 {
		nulls = nil
	}
	return data, nulls
}

// bindRoot type-checks e — TypeOf reports unknown columns and string
// arithmetic in its own words, so bind meets neither — and binds it.
func bindRoot(e Expr, tbl *columnar.Table) (*bound, error) {
	if _, err := e.TypeOf(tbl); err != nil {
		return nil, err
	}
	return bind(e, tbl)
}

// bind resolves e against tbl. Operands bind left to right and a
// comparison checks its types after them, so the first error is the one a
// row-at-a-time evaluation of an all-non-NULL row would meet.
func bind(e Expr, tbl *columnar.Table) (*bound, error) {
	switch x := e.(type) {
	case *Col:
		switch c := tbl.Column(x.Name).(type) {
		case *columnar.Int64Column:
			return &bound{typ: columnar.Int64, ints: columnVec(c.Data(), c.Nulls())}, nil
		case *columnar.Float64Column:
			return &bound{typ: columnar.Float64, floats: columnVec(c.Data(), c.Nulls())}, nil
		case *columnar.StringColumn:
			return &bound{typ: columnar.String, str: c}, nil
		}
		return nil, fmt.Errorf("expr: unknown column %q", x.Name)
	case *Lit:
		return &bound{typ: x.Val.Type, lit: &x.Val}, nil
	case *Arith:
		l, r, err := bind2(x.Left, x.Right, tbl)
		if err != nil {
			return nil, err
		}
		if l.typ == columnar.Float64 || r.typ == columnar.Float64 {
			return &bound{typ: columnar.Float64, floats: arithVec(x.Op, l.asFloats(), r.asFloats())}, nil
		}
		return &bound{typ: columnar.Int64, ints: arithVec(x.Op, l.asInts(), r.asInts())}, nil
	case *Cmp:
		l, r, err := bind2(x.Left, x.Right, tbl)
		if err != nil {
			return nil, err
		}
		return bindCmp(x, l, r)
	case *Logic:
		l, r, err := bind2(x.Left, x.Right, tbl)
		if err != nil {
			return nil, err
		}
		return predicate(logicPred(x.Op, l.asPred(), r.asPred())), nil
	case *Not:
		in, err := bind(x.Inner, tbl)
		if err != nil {
			return nil, err
		}
		p := in.asPred()
		return predicate(func(lo, hi int, t, n []uint64) {
			p(lo, hi, t, n)
			for w := range t {
				t[w] = ^(t[w] | n[w])
			}
		}), nil
	case *Between:
		// (X >= Lo) AND (X <= Hi); a type error names the half it is in.
		return bind(&Logic{Op: And, Left: &Cmp{Op: Ge, Left: x.X, Right: x.Lo}, Right: &Cmp{Op: Le, Left: x.X, Right: x.Hi}}, tbl)
	case *In:
		v, err := bind(x.X, tbl)
		if err != nil {
			return nil, err
		}
		return predicate(inPred(v, x.Vals)), nil
	case *IsNull:
		v, err := bind(x.X, tbl)
		if err != nil {
			return nil, err
		}
		nulls := v.nullMask()
		return predicate(func(lo, hi int, t, n []uint64) {
			nulls(lo, hi, t)
			if x.Negate {
				for w := range t {
					t[w] = ^t[w]
				}
			}
			clear(n)
		}), nil
	}
	return nil, fmt.Errorf("expr: cannot evaluate %T", e)
}

func bind2(le, re Expr, tbl *columnar.Table) (l, r *bound, err error) {
	if l, err = bind(le, tbl); err != nil {
		return nil, nil, err
	}
	r, err = bind(re, tbl)
	return l, r, err
}

func predicate(p predFn) *bound { return &bound{typ: columnar.Int64, pred: p} }

// --- forms: every node can be read as a predicate, a vector, a null mask ---

// asPred reads b as a truth value: a boolean node as itself, a number as
// non-zero, a string as FALSE; NULL stays NULL.
func (b *bound) asPred() predFn {
	switch {
	case b.pred != nil:
		return b.pred
	case b.lit != nil:
		v := b.lit
		return constPred(!v.Null && (v.Type == columnar.Int64 && v.I != 0 || v.Type == columnar.Float64 && v.F != 0), v.Null)
	case b.ints != nil:
		return truthPred(b.ints)
	case b.floats != nil:
		return truthPred(b.floats)
	}
	nulls := b.nullMask()
	return func(lo, hi int, t, n []uint64) {
		clear(t)
		nulls(lo, hi, n)
	}
}

func truthPred[T int64 | float64](vec vecFn[T]) predFn {
	return func(lo, hi int, t, n []uint64) {
		clear(t)
		for i, x := range vec(lo, hi, nil, n) {
			t[i>>6] |= b2u(x != 0) << (uint(i) & 63)
		}
		andNot(t, n)
	}
}

func constPred(isTrue, isNull bool) predFn {
	return func(lo, hi int, t, n []uint64) {
		fill(t, -b2u(isTrue))
		fill(n, -b2u(isNull))
	}
}

// asInts reads an Int64-typed node as a vector: a boolean is 1/0/NULL, a
// literal is broadcast.
func (b *bound) asInts() vecFn[int64] {
	switch {
	case b.ints != nil:
		return b.ints
	case b.lit != nil:
		return constVec(b.lit.I, b.lit.Null)
	}
	return func(lo, hi int, dst []int64, n []uint64) []int64 {
		if dst == nil {
			dst = make([]int64, hi-lo)
		}
		t := make([]uint64, len(n))
		b.pred(lo, hi, t, n)
		for i := range dst {
			dst[i] = int64(t[i>>6] >> (uint(i) & 63) & 1)
		}
		return dst
	}
}

// asFloats reads a numeric node as a float vector, widening integers.
func (b *bound) asFloats() vecFn[float64] {
	switch {
	case b.floats != nil:
		return b.floats
	case b.lit != nil:
		return constVec(asFloat(*b.lit), b.lit.Null)
	}
	ints := b.asInts()
	return func(lo, hi int, dst []float64, n []uint64) []float64 {
		if dst == nil {
			dst = make([]float64, hi-lo)
		}
		for i, x := range ints(lo, hi, nil, n) {
			dst[i] = float64(x)
		}
		return dst
	}
}

// nullMask reads only b's NULL rows.
func (b *bound) nullMask() func(lo, hi int, n []uint64) {
	switch {
	case b.lit != nil:
		return func(_, _ int, n []uint64) { fill(n, -b2u(b.lit.Null)) }
	case b.str != nil:
		return func(lo, _ int, n []uint64) { copyNulls(n, b.str.Nulls(), lo) }
	case b.ints != nil:
		return func(lo, hi int, n []uint64) { b.ints(lo, hi, nil, n) }
	case b.floats != nil:
		return func(lo, hi int, n []uint64) { b.floats(lo, hi, nil, n) }
	}
	return func(lo, hi int, n []uint64) { b.pred(lo, hi, make([]uint64, len(n)), n) }
}

func columnVec[T any](data []T, nulls *columnar.Bitmap) vecFn[T] {
	return func(lo, hi int, dst []T, n []uint64) []T {
		copyNulls(n, nulls, lo)
		if dst == nil {
			return data[lo:hi]
		}
		copy(dst, data[lo:hi])
		return dst
	}
}

func constVec[T any](c T, isNull bool) vecFn[T] {
	return func(lo, hi int, dst []T, n []uint64) []T {
		if dst == nil {
			dst = make([]T, hi-lo)
		}
		fill(dst, c)
		fill(n, -b2u(isNull))
		return dst
	}
}

// --- arithmetic ---

// arithVec is l op r element-wise; x / 0 is NULL. A NULL operand makes the
// row NULL whatever was computed under it.
func arithVec[T int64 | float64](op ArithOp, l, r vecFn[T]) vecFn[T] {
	return func(lo, hi int, dst []T, n []uint64) []T {
		if dst == nil {
			dst = make([]T, hi-lo)
		}
		rn := make([]uint64, len(n))
		a, b := l(lo, hi, nil, n), r(lo, hi, nil, rn)
		or(n, rn)
		switch op {
		case Add:
			for i := range dst {
				dst[i] = a[i] + b[i]
			}
		case Sub:
			for i := range dst {
				dst[i] = a[i] - b[i]
			}
		case Mul:
			for i := range dst {
				dst[i] = a[i] * b[i]
			}
		case Div:
			for i := range dst {
				if b[i] == 0 {
					n[i>>6] |= 1 << (uint(i) & 63)
					dst[i] = 0
					continue
				}
				dst[i] = a[i] / b[i]
			}
		}
		return dst
	}
}

// --- comparison ---

// bindCmp binds l op r. A NULL literal makes every row NULL before types
// are looked at; otherwise mixed numeric operands widen to float and a
// string against a number is an error. A literal on the left is mirrored
// onto the right, where the kernels read it as a scalar.
func bindCmp(c *Cmp, l, r *bound) (*bound, error) {
	switch {
	case l.lit != nil && l.lit.Null || r.lit != nil && r.lit.Null:
		return predicate(constPred(false, true)), nil
	case l.typ != r.typ && (l.typ == columnar.String || r.typ == columnar.String):
		return nil, fmt.Errorf("expr: %s: cannot compare %v with %v", c, l.typ, r.typ)
	}
	op := c.Op
	if l.lit != nil && r.lit == nil {
		l, r, op = r, l, [...]CmpOp{Eq: Eq, Ne: Ne, Lt: Gt, Le: Ge, Gt: Lt, Ge: Le}[op]
	}
	switch {
	case l.typ == columnar.String:
		return predicate(stringCmp(op, l, r)), nil
	case l.typ == columnar.Int64 && r.typ == columnar.Int64:
		return predicate(numericCmp(op, l.asInts(), r.asInts(), r.lit, func(v columnar.Value) int64 { return v.I })), nil
	}
	return predicate(numericCmp(op, l.asFloats(), r.asFloats(), r.lit, asFloat)), nil
}

// holds turns "a < b" and "a > b" bit masks into the mask where a op b
// holds, by Value.Compare's rule: neither means equal, so a NaN operand
// satisfies =, <= and >=.
func holds(op CmpOp, lt, gt uint64) uint64 {
	return [...]uint64{Eq: ^(lt | gt), Ne: lt | gt, Lt: lt, Le: ^gt, Gt: gt, Ge: ^lt}[op]
}

// numericCmp compares two same-typed numeric operands; a literal on the
// right (rlit non-nil) is compared as a scalar against l's vector.
func numericCmp[T int64 | float64](op CmpOp, l, r vecFn[T], rlit *columnar.Value, scalar func(columnar.Value) T) predFn {
	var c T
	if rlit != nil {
		c, r = scalar(*rlit), nil
	}
	// Against a literal only the mask the operator reads is computed.
	needLT, needGT := op != Le && op != Gt, op != Lt && op != Ge
	return func(lo, hi int, t, n []uint64) {
		a := l(lo, hi, nil, n)
		var b []T
		if r != nil {
			rn := make([]uint64, len(n))
			b = r(lo, hi, nil, rn)
			or(n, rn)
		}
		for w := range t {
			// Each row's bits enter at the top and shift down, so the
			// shifts are by constants; a short last block is aligned after.
			var lt, gt uint64
			blk := a[w*64 : min(len(a), w*64+64)]
			if b == nil {
				if needLT {
					for _, x := range blk {
						lt = lt>>1 | b2u(x < c)<<63
					}
				}
				if needGT {
					for _, x := range blk {
						gt = gt>>1 | b2u(x > c)<<63
					}
				}
			} else {
				for i, x := range blk {
					y := b[w*64+i]
					lt, gt = lt>>1|b2u(x < y)<<63, gt>>1|b2u(x > y)<<63
				}
			}
			short := uint(64-len(blk)) & 63
			t[w] = holds(op, lt>>short, gt>>short) &^ n[w]
		}
	}
}

// stringCmp compares two string operands. Against a literal the
// comparison is decided once per dictionary entry and rows only look their
// code up; two columns compare decoded values (their dictionaries differ).
func stringCmp(op CmpOp, l, r *bound) predFn {
	cmp := func(a, b string) bool { return holds(op, b2u(a < b), b2u(a > b))&1 != 0 }
	switch {
	case l.lit != nil:
		return constPred(cmp(l.lit.S, r.lit.S), false)
	case r.lit != nil:
		return dictPred(l.str, func(s string) bool { return cmp(s, r.lit.S) })
	}
	return func(lo, hi int, t, n []uint64) {
		rn := make([]uint64, len(n))
		copyNulls(n, l.str.Nulls(), lo)
		copyNulls(rn, r.str.Nulls(), lo)
		or(n, rn)
		clear(t)
		for i := lo; i < hi; i++ {
			ok := cmp(l.str.Decode(l.str.Code(i)), r.str.Decode(r.str.Code(i)))
			t[(i-lo)>>6] |= b2u(ok) << (uint(i) & 63)
		}
		andNot(t, n)
	}
}

// dictPred is a predicate over a string column decided per dictionary
// entry: match is asked once per distinct value at bind time.
func dictPred(c *columnar.StringColumn, match func(string) bool) predFn {
	table := make([]bool, c.DictSize())
	for code := range table {
		table[code] = match(c.Decode(int32(code)))
	}
	return func(lo, hi int, t, n []uint64) {
		copyNulls(n, c.Nulls(), lo)
		clear(t)
		for i, code := range c.Codes()[lo:hi] {
			t[i>>6] |= b2u(table[code]) << (uint(i) & 63)
		}
		andNot(t, n)
	}
}

// --- logic, IN ---

// logicPred is three-valued AND / OR as word operations.
func logicPred(op LogicOp, l, r predFn) predFn {
	return func(lo, hi int, t, n []uint64) {
		rt := make([]uint64, 2*len(t))
		rt, rn := rt[:len(t)], rt[len(t):]
		l(lo, hi, t, n)
		r(lo, hi, rt, rn)
		for w := range t {
			a, an, b, bn := t[w], n[w], rt[w], rn[w]
			if op == And {
				// NULL unless one side is FALSE or both are TRUE.
				t[w], n[w] = a&b, (an|bn)&(a|an)&(b|bn)
			} else {
				t[w], n[w] = a|b, (an|bn)&^(a|b)
			}
		}
	}
}

// inPred is X IN (vals). A list value X's type cannot be compared with is
// skipped, not an error; a NULL X is NULL.
func inPred(x *bound, vals []columnar.Value) predFn {
	if x.typ == columnar.String {
		set := make(map[string]bool, len(vals))
		for _, v := range vals {
			if v.Type == columnar.String && !v.Null {
				set[v.S] = true
			}
		}
		if x.lit != nil {
			return constPred(!x.lit.Null && set[x.lit.S], x.lit.Null)
		}
		return dictPred(x.str, func(s string) bool { return set[s] })
	}
	// A list value of X's own type matches by ==; one of the other numeric
	// type matches when both sides widened to float are ==, and there a
	// NULL widens to 0, as it always has.
	var ints []int64
	var floats []float64
	for _, v := range vals {
		switch {
		case v.Type == columnar.String || v.Type == x.typ && v.Null:
		case v.Type == columnar.Int64 && x.typ == columnar.Int64:
			ints = append(ints, v.I)
		default:
			floats = append(floats, asFloat(v))
		}
	}
	if x.typ == columnar.Int64 {
		return listPred(x.asInts(), ints, floats)
	}
	return listPred(x.asFloats(), floats, nil)
}

func listPred[T int64 | float64](vec vecFn[T], same []T, widened []float64) predFn {
	return func(lo, hi int, t, n []uint64) {
		clear(t)
		for i, x := range vec(lo, hi, nil, n) {
			hit := false
			for _, c := range same {
				hit = hit || x == c
			}
			for _, c := range widened {
				hit = hit || float64(x) == c
			}
			t[i>>6] |= b2u(hit) << (uint(i) & 63)
		}
		andNot(t, n)
	}
}

// --- word helpers ---

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

func or(dst, src []uint64) {
	for w := range dst {
		dst[w] |= src[w]
	}
}

func andNot(dst, src []uint64) {
	for w := range dst {
		dst[w] &^= src[w]
	}
}

// copyNulls overwrites n with nulls' words from row lo (a multiple of 64)
// on; a nil bitmap means no row is NULL.
func copyNulls(n []uint64, nulls *columnar.Bitmap, lo int) {
	if nulls == nil {
		clear(n)
		return
	}
	copy(n, nulls.Words()[lo>>6:])
}

// trimTail clears the bits past the last of rows rows in words.
func trimTail(words []uint64, rows int) {
	if rem := uint(rows) & 63; rem != 0 {
		words[len(words)-1] &= 1<<rem - 1
	}
}
