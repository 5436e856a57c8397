package bsort

import "math"

// The byte-key source and encoders below are what the engine sorted
// through before the flat partial-key buffer; they stay as the oracle the
// flat source is held to.

// BytesKeySource adapts pre-encoded fixed-width sortable byte keys.
type BytesKeySource struct {
	keys  [][]byte
	depth int
}

// NewBytesKeySource wraps keys, which must share a length that is a
// positive multiple of 4 (pad with zeros via EncodePad if needed).
func NewBytesKeySource(keys [][]byte) *BytesKeySource {
	if len(keys) == 0 {
		return &BytesKeySource{}
	}
	return &BytesKeySource{keys: keys, depth: (len(keys[0]) + 3) / 4}
}

// NumRows implements KeySource.
func (s *BytesKeySource) NumRows() int { return len(s.keys) }

// MaxDepth implements KeySource.
func (s *BytesKeySource) MaxDepth() int { return s.depth }

// PartialKey implements KeySource.
func (s *BytesKeySource) PartialKey(row int32, depth int) uint32 {
	k := s.keys[row]
	var v uint32
	for i := 0; i < 4; i++ {
		v <<= 8
		if idx := depth*4 + i; idx < len(k) {
			v |= uint32(k[idx])
		}
	}
	return v
}

// --- order-preserving key encoding ---
//
// The engine transforms every sort column "into a binary stream that is
// sorted on 4 bytes at a time" regardless of type (Section 3). These
// helpers produce big-endian, unsigned-comparable encodings.

// AppendInt64Key appends an order-preserving 8-byte encoding of v
// (offset-binary: flip the sign bit). desc inverts the encoding.
func AppendInt64Key(dst []byte, v int64, desc bool) []byte {
	u := uint64(v) ^ (1 << 63)
	if desc {
		u = ^u
	}
	return appendUint64(dst, u)
}

// AppendFloat64Key appends an order-preserving 8-byte encoding of v using
// the standard IEEE-754 total-order trick.
func AppendFloat64Key(dst []byte, v float64, desc bool) []byte {
	b := math.Float64bits(v)
	if b>>63 == 1 {
		b = ^b // negative: flip all
	} else {
		b |= 1 << 63 // positive: flip sign
	}
	if desc {
		b = ^b
	}
	return appendUint64(dst, b)
}

// AppendUint32Key appends a 4-byte big-endian encoding of v (used for
// dictionary codes, which are order-preserving because dictionaries are
// sorted).
func AppendUint32Key(dst []byte, v uint32, desc bool) []byte {
	if desc {
		v = ^v
	}
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// EncodePad pads dst with zero bytes to a multiple of 4.
func EncodePad(dst []byte) []byte {
	for len(dst)%4 != 0 {
		dst = append(dst, 0)
	}
	return dst
}

func appendUint64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}
