package engine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
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

// resultsDigest runs all 146 workload statements on the CPU path at the
// given degree and renders one line per statement: ID, row count, SHA-256
// of the canonical result.
func resultsDigest(t *testing.T, degree int) []byte {
	t.Helper()
	e, err := New(Config{Devices: 0, Degree: degree})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Generate(0.01, 20160626).RegisterAll(e); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, q := range append(workload.BDInsights(), workload.CognosROLAP()...) {
		res, err := e.QueryNamed(q.ID, q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		fmt.Fprintf(&out, "%s %d %x\n", q.ID, res.Table.Rows(), sha256.Sum256(canonicalResult(res.Table)))
	}
	return out.Bytes()
}

// TestResultsMatchInterpreterDigest pins every workload statement's result
// to the digest recorded with the boxed row-at-a-time interpreter (the
// evaluator the typed expression kernels replaced), so the oracle for the
// expression service is not the code under change. -update regenerates it
// and is only legitimate when the workload or the generator changes.
//
// The degree-8 pass runs at GOMAXPROCS 1: groupby.RunCPU splits its
// partial float SUMs min(GOMAXPROCS, degree) ways, so on more cores they
// associate differently than at degree 1 (true at the parent commit too).
// Pinned, the sums associate as at degree 1 while every parallel.For path
// — predicate and expression kernels, gathers, key packing — still splits
// eight ways, which is the part the digest is here to lock.
func TestResultsMatchInterpreterDigest(t *testing.T) {
	golden(t, "results_digest.golden", resultsDigest(t, 1))
	if *update {
		return
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	golden(t, "results_digest.golden", resultsDigest(t, 8))
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
	qs := append(workload.BDInsights(), workload.CognosROLAP()...)
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
