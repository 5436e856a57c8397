package expr

// The row loops. Every loop over rows is a top-level function in this
// file, never a closure: Go does not inline the calls inside the closures
// bind builds (a closure copied out of an inlined constructor is not
// revisited by the inliner), so a helper as small as b2u costs a real CALL
// per row there, with a branch inside it. Here b2u compiles to a SETcc, a
// row's bit costs no call and no branch, and each predicate node reads its
// operands once. The closures call these once per worker range.
// TestRowLoopsMakeNoCalls disassembles the test binary and fails on any
// call compiled from this file other than a bounds-check panic.
//
// A comparison's loops are generic: int64 and float64 have different GC
// shapes, so each instantiation is compiled on its own, with the machine
// comparison of its type.

import "math/bits"

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// outside sets bit i of t where a[i] < lo or a[i] > hi. Against a scalar,
// every comparison and BETWEEN is this test or its complement (asRange).
// A NaN is neither, so it is never outside.
func outside[T int64 | float64](t []uint64, a []T, lo, hi T) {
	for w := range t {
		blk := a[w*64 : min(len(a), w*64+64)]
		var m uint64
		for _, x := range blk {
			m = m>>1 | (b2u(x < lo)|b2u(x > hi))<<63
		}
		t[w] = align(m, len(blk))
	}
}

// less sets bit i of t where a[i] < b[i].
func less[T int64 | float64](t []uint64, a, b []T) {
	for w := range t {
		blk := a[w*64 : min(len(a), w*64+64)]
		other := b[w*64:][:len(blk)]
		var m uint64
		for i, x := range blk {
			m = m>>1 | b2u(x < other[i])<<63
		}
		t[w] = align(m, len(blk))
	}
}

// unequal sets bit i of t where a[i] < b[i] or a[i] > b[i]: a NaN on
// either side is neither, so it counts as equal.
func unequal[T int64 | float64](t []uint64, a, b []T) {
	for w := range t {
		blk := a[w*64 : min(len(a), w*64+64)]
		other := b[w*64:][:len(blk)]
		var m uint64
		for i, x := range blk {
			y := other[i]
			m = m>>1 | (b2u(x < y)|b2u(x > y))<<63
		}
		t[w] = align(m, len(blk))
	}
}

// nonzero sets bit i of t where a[i] != 0, a number's truth value (a NaN
// is TRUE).
func nonzero[T int64 | float64](t []uint64, a []T) {
	for w := range t {
		blk := a[w*64 : min(len(a), w*64+64)]
		var m uint64
		for _, x := range blk {
			m = m>>1 | b2u(x != 0)<<63
		}
		t[w] = align(m, len(blk))
	}
}

// inList sets bit i of t where a[i] equals a value of same, or, widened to
// float, a value of widened. Each 64-row block is read once per list value
// while it sits in cache, so the inner loop keeps one comparison.
func inList[T int64 | float64](t []uint64, a, same []T, widened []float64) {
	for w := range t {
		blk := a[w*64 : min(len(a), w*64+64)]
		var m uint64
		for _, c := range same {
			var mc uint64
			for _, x := range blk {
				mc = mc>>1 | b2u(x == c)<<63
			}
			m |= mc
		}
		for _, c := range widened {
			var mc uint64
			for _, x := range blk {
				mc = mc>>1 | b2u(float64(x) == c)<<63
			}
			m |= mc
		}
		t[w] = align(m, len(blk))
	}
}

// lookup sets bit i of t to table[codes[i]], a dictionary entry's 0 or 1.
func lookup(t, table []uint64, codes []int32) {
	for w := range t {
		blk := codes[w*64 : min(len(codes), w*64+64)]
		var m uint64
		for _, c := range blk {
			m = m>>1 | table[c]<<63
		}
		t[w] = align(m, len(blk))
	}
}

// align moves the bits of a word built from the top down by n rows, each
// row entering at bit 63, to bits 0 to n-1. Entering at the top keeps every
// row's shift a constant.
func align(m uint64, n int) uint64 { return m >> (uint(64-n) & 63) }

// gatherRanks sets dst[i] to ranks[codes[i]].
func gatherRanks(dst, ranks []int64, codes []int32) {
	for i, c := range codes {
		dst[i] = ranks[c]
	}
}

// --- word loops ---

// settle finishes a comparison: its test's complement when in, NULL rows
// cleared.
func settle(t, n []uint64, in bool) {
	flip := -b2u(in)
	for w := range t {
		t[w] = (t[w] ^ flip) &^ n[w]
	}
}

// and3 is three-valued AND of (t, n) and (rt, rn) into (t, n): NULL unless
// one side is FALSE or both are TRUE.
func and3(t, n, rt, rn []uint64) {
	for w := range t {
		a, an, b, bn := t[w], n[w], rt[w], rn[w]
		t[w], n[w] = a&b, (an|bn)&(a|an)&(b|bn)
	}
}

// or3 is three-valued OR of (t, n) and (rt, rn) into (t, n).
func or3(t, n, rt, rn []uint64) {
	for w := range t {
		a, an, b, bn := t[w], n[w], rt[w], rn[w]
		t[w], n[w] = a|b, (an|bn)&^(a|b)
	}
}

// not3 is three-valued NOT in place: TRUE where the row was neither TRUE
// nor NULL.
func not3(t, n []uint64) {
	for w := range t {
		t[w] = ^(t[w] | n[w])
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

// trimTail clears the bits past the last of rows rows in words.
func trimTail(words []uint64, rows int) {
	if rem := uint(rows) & 63; rem != 0 {
		words[len(words)-1] &= 1<<rem - 1
	}
}

// --- value loops ---

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// bitsToInts reads a truth mask as 1/0 values.
func bitsToInts(dst []int64, t []uint64) {
	for i := range dst {
		dst[i] = int64(t[i>>6] >> (uint(i) & 63) & 1)
	}
}

func widen(dst []float64, src []int64) {
	for i, x := range src {
		dst[i] = float64(x)
	}
}

// arith writes a op b into dst; x / 0 is NULL, marked in n.
func arith[T int64 | float64](op ArithOp, dst, a, b []T, n []uint64) {
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
}

// zeroNulls sets data's values under n's NULL rows to zero.
func zeroNulls[T int64 | float64](data []T, n []uint64) {
	for w, word := range n {
		for ; word != 0; word &= word - 1 {
			data[w*64+bits.TrailingZeros64(word)] = 0
		}
	}
}

// selectedRows writes base + the position of every set bit of words, in
// order, to out.
func selectedRows(out []int32, words []uint64, base int) {
	k := 0
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			out[k] = int32(base + w*64 + bits.TrailingZeros64(word))
			k++
		}
	}
}
