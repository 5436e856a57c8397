package engine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strconv"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/workload"
)

// canonicalResult renders a result table byte-exactly: column names, then
// rows in result order — ints decimal, floats as their IEEE bit pattern,
// strings quoted, NULL literal — so two renderings are equal iff the
// results are bit-identical.
func canonicalResult(tbl *columnar.Table) []byte {
	var b bytes.Buffer
	for i, c := range tbl.Columns() {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.Quote(c.Name()))
	}
	b.WriteByte('\n')
	for r := 0; r < tbl.Rows(); r++ {
		for i, c := range tbl.Columns() {
			if i > 0 {
				b.WriteByte('|')
			}
			v := c.Value(r)
			switch {
			case v.Null:
				b.WriteString("NULL")
			case v.Type == columnar.Int64:
				b.WriteString(strconv.FormatInt(v.I, 10))
			case v.Type == columnar.Float64:
				fmt.Fprintf(&b, "%016x", math.Float64bits(v.F))
			default:
				b.WriteString(strconv.Quote(v.S))
			}
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// workloadResults runs all 146 workload statements on the CPU path at the
// given degree and returns their result tables, in workload order.
func workloadResults(t *testing.T, degree int) []*columnar.Table {
	t.Helper()
	e, err := New(Config{Devices: 0, Degree: degree})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Generate(0.01, 20160626).RegisterAll(e); err != nil {
		t.Fatal(err)
	}
	var out []*columnar.Table
	for _, q := range workloadQueries() {
		res, err := e.QueryNamed(q.ID, q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		out = append(out, res.Table)
	}
	return out
}

func workloadQueries() []workload.Query {
	return append(workload.BDInsights(), workload.CognosROLAP()...)
}

// TestResultsMatchInterpreterDigest pins every workload statement's result
// at degree 1 to the digest recorded with the boxed row-at-a-time
// interpreter (the evaluator the typed expression kernels replaced) — one
// line per statement: ID, row count, SHA-256 of the canonical result — so
// the oracle for the expression service is not the code under change.
// -update regenerates it and is only legitimate when the workload or the
// generator changes.
//
// Degrees 8 and 24 split the group-by into that many partitions, whose
// partial float SUMs associate differently than degree 1's one pass, by
// design; they are held to degree 1 cell by cell, exactly for ints,
// strings and NULLs and to 1e-9 relative for floats. Every parallel.For
// path — predicate and expression kernels, gathers, key packing — splits
// eight and 24 ways there, which is the part the comparison is here to
// lock. No pass depends on the host's core count.
func TestResultsMatchInterpreterDigest(t *testing.T) {
	one := workloadResults(t, 1)
	var digest bytes.Buffer
	for i, q := range workloadQueries() {
		fmt.Fprintf(&digest, "%s %d %x\n", q.ID, one[i].Rows(), sha256.Sum256(canonicalResult(one[i])))
	}
	golden(t, "results_digest.golden", digest.Bytes())
	if *update {
		return
	}
	for _, degree := range []int{8, 24} {
		for i, got := range workloadResults(t, degree) {
			if msg := diffTables(one[i], got); msg != "" {
				t.Errorf("%s at degree %d differs from degree 1: %s", workloadQueries()[i].ID, degree, msg)
			}
		}
	}
}

// diffTables describes the first cell where got differs from want beyond
// valuesEqual's float tolerance, or returns "".
func diffTables(want, got *columnar.Table) string {
	if want.Rows() != got.Rows() || len(want.Columns()) != len(got.Columns()) {
		return fmt.Sprintf("%dx%d vs %dx%d", got.Rows(), len(got.Columns()), want.Rows(), len(want.Columns()))
	}
	for ci, wc := range want.Columns() {
		gc := got.Columns()[ci]
		if wc.Name() != gc.Name() {
			return fmt.Sprintf("column %d named %q vs %q", ci, gc.Name(), wc.Name())
		}
		for r := 0; r < want.Rows(); r++ {
			if !valuesEqual(wc.Value(r), gc.Value(r)) {
				return fmt.Sprintf("row %d column %q: %v vs %v", r, wc.Name(), gc.Value(r), wc.Value(r))
			}
		}
	}
	return ""
}

// BenchmarkWorkloadLap is the in-process host-path ruler the EXPERIMENTS.md
// ledger rows come from: one iteration is a warm lap of all 146 statements
// on the benchmark's engine (sf 0.1, 2 devices, degree 24), after one cold
// lap outside the timer. -benchmem gives allocations per lap; -cpuprofile
// says where the lap goes.
func BenchmarkWorkloadLap(b *testing.B) {
	e, err := New(Config{Devices: 2, Degree: 24})
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.Generate(0.1, 20160626).RegisterAll(e); err != nil {
		b.Fatal(err)
	}
	qs := workloadQueries()
	lap := func() {
		for _, q := range qs {
			if _, err := e.QueryNamed(q.ID, q.SQL); err != nil {
				b.Fatalf("%s: %v", q.ID, err)
			}
		}
	}
	lap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lap()
	}
	b.ReportMetric(float64(b.N*len(qs))/b.Elapsed().Seconds(), "queries/s")
}
