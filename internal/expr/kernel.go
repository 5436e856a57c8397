package expr

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"blugpu/internal/columnar"
	"blugpu/internal/parallel"
)

// kernelGrain is the minimum rows per worker: a row loop spends one to two
// nanoseconds a row, so smaller ranges cost more to hand off than to scan.
// That holds because the row loops are top-level functions (rows.go), not
// loops inside the closures bind builds, where every helper call would be
// a real call per row.
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

// EvalPredicate evaluates pred over every row of tbl and returns the rows
// where it is TRUE (FALSE and NULL are excluded, per SQL WHERE), in
// ascending order. Disjoint 64-aligned row ranges run on the worker pool:
// each worker writes and counts its own words, then a second fan-out over
// the same ranges writes each range's rows at its offset, so the result is
// identical at any degree; degree 1 runs inline and is the sequential form.
func EvalPredicate(tbl *columnar.Table, pred Expr, degree int) ([]int32, error) {
	b, err := bindRoot(pred, tbl)
	if err != nil {
		return nil, err
	}
	p, rows := b.asPred(), tbl.Rows()
	words := (rows + 63) >> 6
	t := make([]uint64, 2*words)
	t, n := t[:words], t[words:]
	offsets := make([]int, parallel.Workers(rows, kernelGrain, degree))
	parallel.For(rows, kernelGrain, degree, func(lo, hi, w int) {
		tw := t[lo>>6 : (hi+63)>>6]
		p(lo, hi, tw, n[lo>>6:(hi+63)>>6])
		trimTail(tw, hi-lo)
		offsets[w] = popcount(tw)
	})
	total := 0
	for w, c := range offsets {
		offsets[w], total = total, total+c
	}
	out := make([]int32, total)
	parallel.For(rows, kernelGrain, degree, func(lo, hi, w int) {
		selectedRows(out[offsets[w]:], t[lo>>6:(hi+63)>>6], lo)
	})
	return out, nil
}

func popcount(words []uint64) int {
	c := 0
	for _, w := range words {
		c += bits.OnesCount64(w)
	}
	return c
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

func materialize[T int64 | float64](vec vecFn[T], rows, degree int) ([]T, *columnar.Bitmap) {
	data := make([]T, rows)
	nulls := columnar.NewBitmap(rows)
	nw := nulls.Words()
	parallel.For(rows, kernelGrain, degree, func(lo, hi, _ int) {
		n := nw[lo>>6 : (hi+63)>>6]
		vec(lo, hi, data[lo:hi], n)
		trimTail(n, hi-lo)
		zeroNulls(data[lo:hi], n)
	})
	return data, nulls.NilIfEmpty()
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
			not3(t, n)
		}), nil
	case *Between:
		if b, err := bindRange(x, tbl); b != nil || err != nil {
			return b, err
		}
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
			clear(n)
			settle(t, n, x.Negate)
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
		nonzero(t, vec(lo, hi, nil, n))
		andNot(t, n)
	}
}

func constPred(isTrue, isNull bool) predFn {
	tm, nm := -b2u(isTrue), -b2u(isNull)
	return func(_, _ int, t, n []uint64) {
		fill(t, tm)
		fill(n, nm)
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
		bitsToInts(dst, t)
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
		widen(dst, ints(lo, hi, nil, n))
		return dst
	}
}

// nullMask reads only b's NULL rows.
func (b *bound) nullMask() func(lo, hi int, n []uint64) {
	switch {
	case b.lit != nil:
		nm := -b2u(b.lit.Null)
		return func(_, _ int, n []uint64) { fill(n, nm) }
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
	nm := -b2u(isNull)
	return func(lo, hi int, dst []T, n []uint64) []T {
		if dst == nil {
			dst = make([]T, hi-lo)
		}
		fill(dst, c)
		fill(n, nm)
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
		arith(op, dst, a, b, n)
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
	ints := l.typ == columnar.Int64 && r.typ == columnar.Int64
	switch {
	case l.typ == columnar.String:
		return predicate(stringCmp(op, l, r)), nil
	case r.lit != nil && ints:
		lo, hi, in := asRange(op, r.lit.I, math.MinInt64, math.MaxInt64)
		return predicate(rangePred(l.asInts(), lo, hi, in)), nil
	case r.lit != nil:
		lo, hi, in := asRange(op, asFloat(*r.lit), math.Inf(-1), math.Inf(1))
		return predicate(rangePred(l.asFloats(), lo, hi, in)), nil
	case ints:
		return predicate(columnsPred(op, l.asInts(), r.asInts())), nil
	}
	return predicate(columnsPred(op, l.asFloats(), r.asFloats())), nil
}

// asRange turns x op c into one range test over the type's extremes: x op
// c holds exactly where x is inside [lo, hi] (in) or outside it. That is
// Value.Compare's rule — neither less nor greater counts as equal — so a
// NaN, never outside, satisfies =, <= and >=.
func asRange[T int64 | float64](op CmpOp, c, lowest, highest T) (lo, hi T, in bool) {
	switch op {
	case Lt, Ge:
		return c, highest, op == Ge
	case Gt, Le:
		return lowest, c, op == Le
	}
	return c, c, op == Eq
}

// rangePred reads x once and keeps the rows inside [lo, hi] (in) or
// outside it.
func rangePred[T int64 | float64](x vecFn[T], lo, hi T, in bool) predFn {
	return func(from, to int, t, n []uint64) {
		outside(t, x(from, to, nil, n), lo, hi)
		settle(t, n, in)
	}
}

// columnsPred compares two same-typed vectors, by the same rule as asRange:
// >= and <= are the complements of < and >.
func columnsPred[T int64 | float64](op CmpOp, l, r vecFn[T]) predFn {
	return func(lo, hi int, t, n []uint64) {
		rn := make([]uint64, len(n))
		a, b := l(lo, hi, nil, n), r(lo, hi, nil, rn)
		or(n, rn)
		switch op {
		case Eq, Ne:
			unequal(t, a, b)
		case Lt, Ge:
			less(t, a, b)
		default:
			less(t, b, a)
		}
		settle(t, n, op == Eq || op == Ge || op == Le)
	}
}

// bindRange binds X BETWEEN Lo AND Hi to one range test that reads X once,
// when both bounds are non-NULL numeric literals and X is numeric and both
// halves compare in one type: integers if X and both bounds are, floats if
// X or both bounds are. It returns nil for every other BETWEEN, which keeps
// its AND form.
func bindRange(x *Between, tbl *columnar.Table) (*bound, error) {
	lo, ok1 := x.Lo.(*Lit)
	hi, ok2 := x.Hi.(*Lit)
	if !ok1 || !ok2 || lo.Val.Null || hi.Val.Null || lo.Val.Type == columnar.String || hi.Val.Type == columnar.String {
		return nil, nil
	}
	v, err := bind(x.X, tbl)
	if err != nil || v.typ == columnar.String {
		return nil, err
	}
	floatLo := v.typ == columnar.Float64 || lo.Val.Type == columnar.Float64
	floatHi := v.typ == columnar.Float64 || hi.Val.Type == columnar.Float64
	switch {
	case floatLo != floatHi:
		return nil, nil
	case floatLo:
		return predicate(rangePred(v.asFloats(), asFloat(lo.Val), asFloat(hi.Val), true)), nil
	}
	return predicate(rangePred(v.asInts(), lo.Val.I, hi.Val.I, true)), nil
}

// stringCmp compares two string operands. Against a literal the
// comparison is decided once per dictionary entry and rows only look their
// code up; two columns compare their codes' ranks in the union of the two
// dictionaries.
func stringCmp(op CmpOp, l, r *bound) predFn {
	switch {
	case l.lit != nil:
		return constPred(holds(op, strings.Compare(l.lit.S, r.lit.S)), false)
	case r.lit != nil:
		return dictPred(l.str, func(s string) bool { return holds(op, strings.Compare(s, r.lit.S)) })
	}
	lr, rr := unionRanks(l.str, r.str)
	return columnsPred(op, rankVec(l.str, lr), rankVec(r.str, rr))
}

// holds reports whether a op b, given c = strings.Compare(a, b).
func holds(op CmpOp, c int) bool {
	return [...]bool{Eq: c == 0, Ne: c != 0, Lt: c < 0, Le: c <= 0, Gt: c > 0, Ge: c >= 0}[op]
}

// unionRanks ranks the entries of two sorted dictionaries in their union,
// in one merge: equal strings share a rank, and ranks order as the strings
// do.
func unionRanks(a, b *columnar.StringColumn) (ra, rb []int64) {
	ra, rb = make([]int64, a.DictSize()), make([]int64, b.DictSize())
	i, j := 0, 0
	for rank := int64(0); i < len(ra) || j < len(rb); rank++ {
		c := 1
		switch {
		case j == len(rb):
			c = -1
		case i < len(ra):
			c = strings.Compare(a.Decode(int32(i)), b.Decode(int32(j)))
		}
		if c <= 0 {
			ra[i], i = rank, i+1
		}
		if c >= 0 {
			rb[j], j = rank, j+1
		}
	}
	return ra, rb
}

// rankVec reads a string column as its codes' ranks.
func rankVec(c *columnar.StringColumn, ranks []int64) vecFn[int64] {
	return func(lo, hi int, dst []int64, n []uint64) []int64 {
		if dst == nil {
			dst = make([]int64, hi-lo)
		}
		gatherRanks(dst, ranks, c.Codes()[lo:hi])
		copyNulls(n, c.Nulls(), lo)
		return dst
	}
}

// dictPred is a predicate over a string column decided per dictionary
// entry: match is asked once per distinct value at bind time.
func dictPred(c *columnar.StringColumn, match func(string) bool) predFn {
	table := make([]uint64, c.DictSize())
	for code := range table {
		table[code] = b2u(match(c.Decode(int32(code))))
	}
	return func(lo, hi int, t, n []uint64) {
		lookup(t, table, c.Codes()[lo:hi])
		copyNulls(n, c.Nulls(), lo)
		andNot(t, n)
	}
}

// --- logic, IN ---

// logicPred is three-valued AND / OR as word operations.
func logicPred(op LogicOp, l, r predFn) predFn {
	combine := and3
	if op == Or {
		combine = or3
	}
	return func(lo, hi int, t, n []uint64) {
		rt := make([]uint64, 2*len(t))
		rt, rn := rt[:len(t)], rt[len(t):]
		l(lo, hi, t, n)
		r(lo, hi, rt, rn)
		combine(t, n, rt, rn)
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
		inList(t, vec(lo, hi, nil, n), same, widened)
		andNot(t, n)
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
