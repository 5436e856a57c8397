package columnar

import (
	"fmt"
	"math"
	"testing"
)

// testDegrees are the degrees every differential test sweeps; sizes
// include 0, 1 and non-chunk-aligned row counts on purpose.
var testDegrees = []int{1, 2, 8}

var testSizes = []int{0, 1, 5, 63, 64, 65, 1000, 4097}

func buildTestColumns(n int, withNulls bool) (*Int64Column, *Float64Column, *StringColumn) {
	ib := NewInt64Builder("i")
	fb := NewFloat64Builder("f")
	sb := NewStringBuilder("s")
	for r := 0; r < n; r++ {
		if withNulls && r%7 == 3 {
			ib.AppendNull()
			fb.AppendNull()
			sb.AppendNull()
			continue
		}
		ib.Append(int64(r*31 - 1000))
		fb.Append(float64(r) * 0.5)
		sb.Append(fmt.Sprintf("v%03d", r%97))
	}
	return ib.Build(), fb.Build(), sb.Build()
}

// reversedRows is an out-of-order row vector over [0, n).
func reversedRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(n - 1 - i)
	}
	return rows
}

func sameNullShape(t *testing.T, label string, a, b interface {
	Len() int
	IsNull(int) bool
}) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: len %d != %d", label, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.IsNull(i) != b.IsNull(i) {
			t.Fatalf("%s: null mismatch at row %d", label, i)
		}
	}
}

func TestGatherDegreeMatchesSequential(t *testing.T) {
	for _, n := range testSizes {
		for _, withNulls := range []bool{false, true} {
			ic, fc, sc := buildTestColumns(n, withNulls)
			rows := reversedRows(n)
			seqI := ic.Gather("i2", rows)
			seqF := fc.Gather("f2", rows)
			seqS := sc.Gather("s2", rows)
			for _, d := range testDegrees {
				label := fmt.Sprintf("n=%d nulls=%v degree=%d", n, withNulls, d)
				parI := ic.GatherDegree("i2", rows, d)
				parF := fc.GatherDegree("f2", rows, d)
				parS := sc.GatherDegree("s2", rows, d)
				sameNullShape(t, label+" int", seqI, parI)
				sameNullShape(t, label+" float", seqF, parF)
				sameNullShape(t, label+" string", seqS, parS)
				// The lazily-allocated bitmap must stay lazy.
				if (seqI.nulls == nil) != (parI.nulls == nil) {
					t.Errorf("%s: null bitmap allocation differs", label)
				}
				for i := 0; i < n; i++ {
					if seqI.Int64(i) != parI.Int64(i) {
						t.Fatalf("%s: int row %d: %d != %d", label, i, seqI.Int64(i), parI.Int64(i))
					}
					if math.Float64bits(seqF.Float64(i)) != math.Float64bits(parF.Float64(i)) {
						t.Fatalf("%s: float row %d differs", label, i)
					}
					if seqS.Code(i) != parS.Code(i) {
						t.Fatalf("%s: string row %d: code %d != %d", label, i, seqS.Code(i), parS.Code(i))
					}
				}
			}
		}
	}
}

func TestGatherColumnDegreeDispatch(t *testing.T) {
	ic, fc, sc := buildTestColumns(1000, true)
	rows := reversedRows(1000)
	for _, c := range []Column{ic, fc, sc} {
		seq := GatherColumn(c, "out", rows)
		for _, d := range testDegrees {
			par := GatherColumnDegree(c, "out", rows, d)
			if par.Name() != "out" || par.Type() != c.Type() {
				t.Fatalf("degree %d: wrong column identity", d)
			}
			for i := 0; i < 1000; i++ {
				sv, pv := seq.Value(i), par.Value(i)
				if sv.Null != pv.Null || (!sv.Null && sv.String() != pv.String()) {
					t.Fatalf("degree %d %v: row %d: %v != %v", d, c.Type(), i, sv, pv)
				}
			}
		}
	}
}

func TestIotaRows(t *testing.T) {
	for _, n := range testSizes {
		for _, d := range testDegrees {
			rows := IotaRows(n, d)
			if len(rows) != n {
				t.Fatalf("n=%d degree=%d: got %d rows", n, d, len(rows))
			}
			for i, r := range rows {
				if r != int32(i) {
					t.Fatalf("n=%d degree=%d: rows[%d] = %d", n, d, i, r)
				}
			}
		}
	}
}

// BenchmarkParallelGather tracks the hot gather path; compare degree
// sub-benchmarks with benchstat for the wall-clock speedup.
func BenchmarkParallelGather(b *testing.B) {
	const n = 1 << 20
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i * 7)
	}
	col := NewInt64Column("c", data, nil)
	rows := reversedRows(n)
	for _, degree := range []int{1, 8} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				col.GatherDegree("out", rows, degree)
			}
		})
	}
}
