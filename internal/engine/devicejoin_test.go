package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"blugpu/internal/plan"
	"blugpu/internal/sqlparse"
	"blugpu/internal/workload"
)

// TestJoinEstimateDecides: a fused chain that spans the joins under its
// group-by decides Figure 3 before they run, on the probe side's rows
// times each join's kept fraction and its probe key's non-NULL share.
// Over a warm lap of the 146 statements
// (2 devices, degree 24) at sf 0.02, 0.05 and 0.1, every group-by with a
// join below must get from that estimate the decision the exact joined
// count would have given it, and its EXPLAIN record carries both.
func TestJoinEstimateDecides(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two laps of the workload at three scales")
	}
	qs := workloadQueries()
	for _, sf := range []float64{0.02, 0.05, 0.1} {
		e := newWorkloadEngine(t, sf)
		joined, gpu := 0, 0
		var maxCPU, minGPU int64 = 0, math.MaxInt64
		for lap := 0; lap < 2; lap++ { // cold, then warm
			for _, q := range qs {
				res, err := e.QueryNamed(q.ID, q.SQL)
				if err != nil {
					t.Fatalf("sf %g %s: %v", sf, q.ID, err)
				}
				if lap == 0 {
					continue
				}
				for _, op := range res.Ops {
					a := op.Agg
					if a == nil || a.EstRows == 0 {
						continue
					}
					agg := planAggregate(t, e, q.SQL)
					cols, _, err := lowerAggs(agg.Aggs)
					if err != nil {
						t.Fatal(err)
					}
					_, exact, reason := e.decide(agg, cols, a.InputRows, nil)
					joined++
					if exact.String() == "gpu" {
						gpu++
						minGPU = min(minGPU, a.EstRows)
					} else {
						maxCPU = max(maxCPU, a.EstRows)
					}
					if a.Decision != exact.String() {
						t.Errorf("sf %g %s: pre-join estimate %d rows decides %s (%s), the exact %d rows %s (%s)",
							sf, q.ID, a.EstRows, a.Decision, a.Reason, a.InputRows, exact, reason)
					}
				}
			}
		}
		if joined == 0 {
			t.Fatalf("sf %g: no group-by decided on a pre-join estimate", sf)
		}
		t.Logf("sf %g: %d group-bys over joins decided before them, %d of them on the device; estimates: CPU <= %d, GPU >= %d",
			sf, joined, gpu, maxCPU, minGPU)
		if sf == 0.1 {
			explainRunLine(t, e, qs)
		}
	}
}

// TestJoinEstimateMisdecides pins a statement whose pre-join estimate and
// joined count fall on either side of T1, so a change to the estimate
// shows here. The join keeps the east stores, half of them, so the
// estimate is half the filtered sales rows; but the east stores are the
// even ones and every NULL s_qty falls on an odd one, so more rows join
// than that. The estimate decides the CPU where the exact count would
// have decided the device.
func TestJoinEstimateMisdecides(t *testing.T) {
	e := newTestEngine(t, 120_000)
	const sql = "SELECT s_month, SUM(s_qty) AS q FROM sales JOIN stores ON s_store_sk = st_store_sk " +
		"WHERE s_qty > 1 AND st_region = 'east' GROUP BY s_month"
	if e.thresholds.T1Rows != 50_000 {
		t.Fatalf("T1 is %d, want the default 50 000", e.thresholds.T1Rows)
	}
	res, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range res.Ops {
		a := op.Agg
		if a == nil {
			continue
		}
		if a.EstRows != 48_857 || a.InputRows != 51_428 {
			t.Errorf("estimated %d rows before the join, %d joined; want 48 857 and 51 428", a.EstRows, a.InputRows)
		}
		agg := planAggregate(t, e, sql)
		cols, _, err := lowerAggs(agg.Aggs)
		if err != nil {
			t.Fatal(err)
		}
		if _, exact, _ := e.decide(agg, cols, a.InputRows, nil); a.Decision != "cpu" || exact.String() != "gpu" {
			t.Errorf("the estimate decided %s (%s) and the exact count %s; want cpu and gpu", a.Decision, a.Reason, exact)
		}
		return
	}
	t.Fatal("no group-by record")
}

// explainRunLine: EXPLAIN ANALYZE of a warm group-by over a join shows
// the pre-join estimate the decision read and the actual rows on its run
// line, and how many joins the chain probed on the device on its fused
// line.
func explainRunLine(t *testing.T, e *Engine, qs []workload.Query) {
	t.Helper()
	for _, q := range qs {
		if q.ID != "rolap-q01" {
			continue
		}
		rep, res, err := e.ExplainAnalyzeNamedCtx(context.Background(), q.ID, q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		rep.WriteText(&sb)
		for _, op := range res.Ops {
			if a := op.Agg; a != nil {
				run := fmt.Sprintf("run:  rows~%d (pre-join) actual=%d ", a.EstRows, a.InputRows)
				if a.EstRows == 0 || !strings.Contains(sb.String(), run) || !strings.Contains(sb.String(), " joins=device(2) ") {
					t.Errorf("%s: EXPLAIN ANALYZE lacks %q or the chain's two device joins:\n%s", q.ID, run, sb.String())
				}
			}
		}
		return
	}
	t.Fatal("rolap-q01 is not in the workload")
}

// planAggregate plans sql on e and returns its group-by.
func planAggregate(t *testing.T, e *Engine, sql string) *plan.Aggregate {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	for n := p.Root; n != nil; n = plan.Input(n) {
		if agg, ok := n.(*plan.Aggregate); ok {
			return agg
		}
	}
	t.Fatalf("no group-by in %s", sql)
	return nil
}
