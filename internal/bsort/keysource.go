// Package bsort implements the paper's hybrid CPU/GPU sort (Section 3).
//
// Tuples stay unmoved in the Sort Data Store (SDS); sorting operates on an
// intermediate *partial key buffer* of (4-byte partial key, 4-byte
// payload) entries, where the key is a binary-sortable prefix of the sort
// key and the payload addresses the tuple. A job queue drives the sort:
// the initial job covers the whole data set; after a GPU radix pass sorts
// a job by its 4-byte prefix, every *duplicate range* (a run of equal
// prefixes) becomes a new job at the next 4-byte key depth. Small jobs are
// sorted on the CPU instead — the transfer plus launch cost exceeds the
// device's advantage — so CPU and GPU run jobs from the same queue
// concurrently, and conflict-free partitioning keeps the design merge-free.
package bsort

// KeySource supplies binary-sortable keys for the rows being sorted: the
// engine's window into the SDS buckets. Keys are fixed width and compared
// 4 bytes at a time ("subsequent fetches of the next partial key may be
// required to determine the final ordering").
type KeySource interface {
	// NumRows is the tuple count.
	NumRows() int
	// MaxDepth is the key width in 4-byte segments.
	MaxDepth() int
	// PartialKey returns the 4-byte big-endian-sortable segment at the
	// given depth for the given row.
	PartialKey(row int32, depth int) uint32
}

// FlatKeySource serves partial keys out of one flat buffer holding depth
// 4-byte segments per row, row after row — the engine extracts every sort
// column's segments into it column-wise, so a fetch is a single index and
// no row owns an allocation.
type FlatKeySource struct {
	words []uint32
	rows  int
	depth int
}

// NewFlatKeySource wraps words, which must hold depth segments for each of
// rows rows. The row count is carried, not derived, so a key of no columns
// (depth 0) still sorts every row — to the identity permutation.
func NewFlatKeySource(words []uint32, rows, depth int) *FlatKeySource {
	return &FlatKeySource{words: words, rows: rows, depth: depth}
}

// NumRows implements KeySource.
func (s *FlatKeySource) NumRows() int { return s.rows }

// MaxDepth implements KeySource.
func (s *FlatKeySource) MaxDepth() int { return s.depth }

// PartialKey implements KeySource.
func (s *FlatKeySource) PartialKey(row int32, depth int) uint32 {
	return s.words[int(row)*s.depth+depth]
}
