// Package optimizer provides the planning metadata the hybrid engine's
// path decisions run on: per-table column statistics (row counts,
// distinct-value estimates, min/max), group-count estimation for
// group-by queries, predicate selectivity guesses, and the Figure-3
// decision procedure with its thresholds T1 (too few rows), T2 (too few
// groups) and T3 (too many rows for device memory).
package optimizer

import (
	"fmt"
	"math"
	"math/bits"

	"blugpu/internal/columnar"
	"blugpu/internal/kmv"
)

// ColumnStats summarizes one column.
type ColumnStats struct {
	Name string
	Type columnar.Type
	// NDV is the estimated number of distinct values.
	NDV uint64
	// Nulls is the number of NULL rows.
	Nulls int
	// MinI/MaxI bound Int64 columns (valid when the column has a non-null
	// row).
	MinI, MaxI int64
	// MinF/MaxF bound Float64 columns.
	MinF, MaxF float64
}

// TableStats summarizes one table.
type TableStats struct {
	Table   string
	Rows    int
	Columns map[string]*ColumnStats
}

// Analyze computes statistics for every column of tbl. NDV for string
// columns is exact (the dictionary size); numeric columns use a KMV
// sketch, matching the engine's runtime estimator.
func Analyze(tbl *columnar.Table) *TableStats {
	ts := &TableStats{
		Table:   tbl.Name(),
		Rows:    tbl.Rows(),
		Columns: make(map[string]*ColumnStats, tbl.NumColumns()),
	}
	for _, col := range tbl.Columns() {
		cs := ColumnStats{Name: col.Name(), Type: col.Type()}
		switch c := col.(type) {
		case *columnar.StringColumn:
			cs.NDV = uint64(c.DictSize())
			for i := 0; i < c.Len(); i++ {
				if c.IsNull(i) {
					cs.Nulls++
				}
			}
		case *columnar.Int64Column:
			cs.MinI, cs.MaxI, cs.Nulls, cs.NDV = numStats(c.Data(), c.Nulls(), func(v int64) uint64 { return uint64(v) })
		case *columnar.Float64Column:
			cs.MinF, cs.MaxF, cs.Nulls, cs.NDV = numStats(c.Data(), c.Nulls(), math.Float64bits)
		}
		if cs.NDV == 0 && tbl.Rows() > 0 && cs.Nulls < tbl.Rows() {
			cs.NDV = 1
		}
		ts.Columns[col.Name()] = &cs
	}
	return ts
}

// numStats scans a numeric column's values once for the min and max of
// its non-NULL rows (zero when it has none), its NULL count and a KMV
// estimate of its distinct values, each sketched as bits gives it.
func numStats[T int64 | float64](data []T, nulls *columnar.Bitmap, bits func(T) uint64) (lo, hi T, nullRows int, ndv uint64) {
	sk := kmv.MustNew(kmv.DefaultK)
	first := true
	for i, v := range data {
		if nulls != nil && nulls.Get(i) {
			nullRows++
			continue
		}
		sk.AddUint64(bits(v))
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
	}
	return lo, hi, nullRows, sk.EstimateUint64()
}

// EstimateGroups estimates the group count of grouping on keys with the
// given statistics, one entry a key, each from the table that owns its
// column: the product of their NDVs, capped at rows. A nil entry — a key
// no table describes, such as a derived column — contributes a
// conservative sqrt(rows).
func EstimateGroups(keys []*ColumnStats, rows int64) uint64 {
	if rows <= 0 {
		return 0
	}
	est := 1.0
	for _, cs := range keys {
		if cs != nil && cs.NDV > 0 {
			est *= float64(cs.NDV)
		} else {
			est *= math.Sqrt(float64(rows))
		}
		if est > float64(rows) {
			return uint64(rows)
		}
	}
	return uint64(est + 0.5)
}

// KeyBits bounds the bits a narrow packed key over keys takes, as the
// evaluator chain's LCOG lays it out over the whole table: a dictionary
// code's width, an int column's value range, one more code for NULL. A
// float key or a nil entry (a derived key) takes 64, which selects the
// wide layout. Only the rows the group-by sees are packed, so the key it
// packs is never wider.
func KeyBits(keys []*ColumnStats) int {
	total := 0
	for _, cs := range keys {
		if cs == nil || cs.Type == columnar.Float64 {
			total += 64
			continue
		}
		var top uint64 // the largest code before the NULL shift
		if cs.Type == columnar.String {
			top = max(cs.NDV, 1) - 1
		} else {
			top = uint64(cs.MaxI - cs.MinI)
		}
		if cs.Nulls > 0 && top < math.MaxUint64 {
			top++
		}
		total += max(bits.Len64(top), 1)
	}
	return total
}

// --- Figure 3: path selection ---

// Thresholds are the paper's T1/T2/T3 knobs.
type Thresholds struct {
	// T1Rows: at or below this many input rows the CPU is already fast
	// and transfer overhead dominates — stay on the host.
	T1Rows int64
	// T2Groups: at or below this many groups *and* small rows the CPU
	// wins; with rows above T1 and groups above T2 the GPU path opens.
	T2Groups int64
	// T3Rows: above this many rows the input cannot fit device memory;
	// the prototype processes such queries on the CPU (partitioning
	// across CPU+GPU is future work in the paper).
	T3Rows int64
}

// DefaultThresholds returns the calibrated defaults.
func DefaultThresholds() Thresholds {
	return Thresholds{
		T1Rows:   50_000,
		T2Groups: 4,
		T3Rows:   200_000_000,
	}
}

// Decision says where a group-by/aggregation (or sort) should run.
type Decision int

// Decisions.
const (
	// UseCPU keeps the whole chain on the host.
	UseCPU Decision = iota
	// UseGPU offloads the heavy phase to a device.
	UseGPU
)

func (d Decision) String() string {
	if d == UseCPU {
		return "cpu"
	}
	return "gpu"
}

// Reason explains a Decision.
type Reason int

// Reasons.
const (
	// ReasonEligible: rows and groups clear T1/T2 and memory fits.
	ReasonEligible Reason = iota
	// ReasonSmallRows: rows <= T1.
	ReasonSmallRows
	// ReasonSmallGroups: groups <= T2.
	ReasonSmallGroups
	// ReasonTooManyRows: rows > T3.
	ReasonTooManyRows
	// ReasonMemory: the up-front demand exceeds every device's capacity.
	ReasonMemory
	// ReasonNoDevice: no GPU configured.
	ReasonNoDevice
)

func (r Reason) String() string {
	switch r {
	case ReasonEligible:
		return "eligible"
	case ReasonSmallRows:
		return "rows<=T1"
	case ReasonSmallGroups:
		return "groups<=T2"
	case ReasonTooManyRows:
		return "rows>T3"
	case ReasonMemory:
		return "exceeds-device-memory"
	case ReasonNoDevice:
		return "no-device"
	default:
		return "unknown"
	}
}

// Estimate is the metadata a decision runs on, taken before the evaluator
// chain runs: the input row count (the plan-time count for a prognosis,
// the exact one at run time), the group count estimated from table
// statistics, and the device memory demand bounded from those groups.
type Estimate struct {
	Rows         int64
	Groups       int64
	MemoryDemand int64
}

// Decide implements Figure 3. maxDeviceMem is the largest single device's
// capacity (0 means no device).
func Decide(est Estimate, th Thresholds, maxDeviceMem int64) (Decision, Reason) {
	if maxDeviceMem <= 0 {
		return UseCPU, ReasonNoDevice
	}
	if est.Rows <= th.T1Rows {
		return UseCPU, ReasonSmallRows
	}
	if est.Groups > 0 && est.Groups <= th.T2Groups {
		return UseCPU, ReasonSmallGroups
	}
	if th.T3Rows > 0 && est.Rows > th.T3Rows {
		return UseCPU, ReasonTooManyRows
	}
	if est.MemoryDemand > maxDeviceMem {
		return UseCPU, ReasonMemory
	}
	return UseGPU, ReasonEligible
}

func (ts *TableStats) String() string {
	return fmt.Sprintf("stats(%s: %d rows, %d columns)", ts.Table, ts.Rows, len(ts.Columns))
}

// String renders the Figure-3 knobs compactly, for decision audits.
func (t Thresholds) String() string {
	return fmt.Sprintf("T1=%d T2=%d T3=%d", t.T1Rows, t.T2Groups, t.T3Rows)
}

// Prognosis is one group-by's plan-time path prediction: the estimate
// the decision ran on, the thresholds in force, and the outcome. The
// engine's EXPLAIN renders these, and EXPLAIN ANALYZE carries them into
// the per-operator audit so the plan-time call can be compared with
// what actually ran.
type Prognosis struct {
	Keys       []string
	Estimate   Estimate
	Thresholds Thresholds
	Decision   Decision
	Reason     Reason
}

// Prognose runs Decide and captures its full context for later audit.
func Prognose(keys []string, est Estimate, th Thresholds, maxDeviceMem int64) Prognosis {
	d, r := Decide(est, th, maxDeviceMem)
	return Prognosis{Keys: keys, Estimate: est, Thresholds: th, Decision: d, Reason: r}
}
