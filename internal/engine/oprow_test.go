package engine

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"blugpu/internal/bsort"
	"blugpu/internal/expr"
	"blugpu/internal/plan"
	"blugpu/internal/sqlparse"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// tracedFrame is an empty frame on a fresh query root at base, with
// charged already on its clock.
func tracedFrame(base vtime.Time, charged vtime.Duration) (*frame, *trace.Tracer) {
	tr := trace.New()
	f := &frame{q: qctx{tc: tr.StartQuery("q", base), base: base}, modeled: charged}
	return f, tr
}

// spanByID returns the traced span with id, failing the test when the
// tracer holds none.
func spanByID(t *testing.T, tr *trace.Tracer, id trace.SpanID) trace.Span {
	t.Helper()
	for _, sp := range tr.Spans() {
		if sp.ID == id {
			return sp
		}
	}
	t.Fatalf("no span %d", id)
	return trace.Span{}
}

// TestOpRowSelfTimeIsChargeSinceOpen: a row's self time is what was
// charged to the frame between open and close, not what the frame held
// before, and its span covers exactly that interval.
func TestOpRowSelfTimeIsChargeSinceOpen(t *testing.T) {
	const base = vtime.Time(1)
	f, tr := tracedFrame(base, 3*vtime.Millisecond)
	r := f.open("filter", 2)
	f.modeled += 5 * vtime.Millisecond
	row := r.close(10, "cpu", trace.Int("rows", 10))

	if len(f.ops) != 1 {
		t.Fatalf("%d rows appended, want 1", len(f.ops))
	}
	if row.Op != "filter" || row.Depth != 2 || row.Rows != 10 || row.Detail != "cpu" {
		t.Errorf("row %+v", *row)
	}
	if row.Modeled != 5*vtime.Millisecond {
		t.Errorf("self time %v, want 5ms", row.Modeled)
	}
	if row.Start != base.Add(3*vtime.Millisecond) || row.End != base.Add(8*vtime.Millisecond) {
		t.Errorf("row spans [%v, %v], want [%v, %v]", row.Start, row.End,
			base.Add(3*vtime.Millisecond), base.Add(8*vtime.Millisecond))
	}
	sp := spanByID(t, tr, row.Span)
	if sp.Cat != "op" || sp.Name != "filter" || sp.Start != row.Start || sp.End != row.End {
		t.Errorf("span %s/%s [%v, %v], want op/filter [%v, %v]", sp.Cat, sp.Name, sp.Start, sp.End, row.Start, row.End)
	}
	if len(sp.Attrs) != 1 || sp.Attrs[0].Key != "rows" || sp.Attrs[0].Int != 10 {
		t.Errorf("span attrs %+v, want rows=10", sp.Attrs)
	}
}

// TestOpRowsTileTheFrame: consecutive rows, a zero-charge one among
// them, each start where the one before ended, are as wide as their self
// times, and the last ends at the frame's clock (tileOps, which
// TestOracleMatrix applies to every statement). Each self time is the
// charge made inside its row, to the float rounding of a difference of
// two clock readings.
func TestOpRowsTileTheFrame(t *testing.T) {
	f, _ := tracedFrame(0, 0)
	charges := []vtime.Duration{2 * vtime.Millisecond, 0, 7 * vtime.Microsecond, 1.25 * vtime.Millisecond}
	for i, d := range charges {
		r := f.open("op", i)
		f.modeled += d
		r.close(i, "")
	}
	if err := tileOps(&Result{Ops: f.ops, Modeled: f.modeled}); err != nil {
		t.Error(err)
	}
	for i, op := range f.ops {
		if d := math.Abs(float64(op.Modeled - charges[i])); d > 1e-9*float64(charges[i]) {
			t.Errorf("row %d self time %v, want %v", i, op.Modeled, charges[i])
		}
	}
}

// TestOpRowCloseReturnsAppendedRow: close hands back the row it
// appended, so what the group-by and the sorts attach lands in the
// frame's rows.
func TestOpRowCloseReturnsAppendedRow(t *testing.T) {
	f, _ := tracedFrame(0, 0)
	f.open("scan", 3).close(4, "")
	row := f.open("sort", 2).close(4, "cpu")
	row.Detail = "cpu/attached"
	if len(f.ops) != 2 || f.ops[1].Detail != "cpu/attached" || f.ops[0].Detail != "" {
		t.Errorf("rows %+v: the returned row is not the appended one", f.ops)
	}
}

// TestOpRowFailEndsSpanWithError: a failed operator ends its span at the
// frame's clock with the error, returns the error unchanged and appends
// no row.
func TestOpRowFailEndsSpanWithError(t *testing.T) {
	const base = vtime.Time(2)
	f, tr := tracedFrame(base, vtime.Millisecond)
	r := f.open("groupby", 1)
	f.modeled += 4 * vtime.Millisecond
	boom := errors.New("device lost")
	out, err := r.fail(boom)
	if out != nil || err != boom {
		t.Fatalf("fail returned (%v, %v), want (nil, %v)", out, err, boom)
	}
	if len(f.ops) != 0 {
		t.Errorf("failed operator appended rows %+v", f.ops)
	}
	sp := spanByID(t, tr, r.sp.ID())
	if sp.Start != base.Add(vtime.Millisecond) || sp.End != f.at() {
		t.Errorf("span [%v, %v], want [%v, %v]", sp.Start, sp.End, base.Add(vtime.Millisecond), f.at())
	}
	var msg string
	for _, a := range sp.Attrs {
		if a.Key == "error" {
			msg = a.Str
		}
	}
	if msg != boom.Error() {
		t.Errorf("span error attr %q, want %q", msg, boom.Error())
	}
}

// TestGPUSortThresholdDefault: New fills in the GPU sort threshold when
// it is unset and keeps one that is set.
func TestGPUSortThresholdDefault(t *testing.T) {
	for _, c := range []struct{ set, want int }{{0, bsort.DefaultGPUThreshold}, {-1, bsort.DefaultGPUThreshold}, {256, 256}} {
		e, err := New(Config{GPUSortThreshold: c.set})
		if err != nil {
			t.Fatal(err)
		}
		if e.cfg.GPUSortThreshold != c.want {
			t.Errorf("GPUSortThreshold %d -> %d, want %d", c.set, e.cfg.GPUSortThreshold, c.want)
		}
	}
}

// TestPrognosisOnlyForAggregate: a plan's prognosis is its one group-by's,
// keyed by the group-by's keys; a plan with no group-by has none.
func TestPrognosisOnlyForAggregate(t *testing.T) {
	e := newTestEngine(t, 1000)
	for _, c := range []struct {
		sql  string
		keys []string
	}{
		{"SELECT s_month, SUM(s_qty) AS t FROM sales WHERE s_qty > 1 GROUP BY s_month ORDER BY s_month", []string{"s_month"}},
		{"SELECT s_month, s_qty FROM sales WHERE s_qty > 1 ORDER BY s_qty LIMIT 5", nil},
	} {
		stmt, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.plan(stmt)
		if err != nil {
			t.Fatal(err)
		}
		pr := e.prognosis(p.Root)
		if c.keys == nil {
			if pr != nil {
				t.Errorf("%s: prognosis %+v for a plan with no group-by", c.sql, *pr)
			}
			continue
		}
		if pr == nil {
			t.Fatalf("%s: no prognosis", c.sql)
		}
		if len(pr.Keys) != len(c.keys) || pr.Keys[0] != c.keys[0] {
			t.Errorf("%s: prognosis keys %v, want %v", c.sql, pr.Keys, c.keys)
		}
		if pr.Estimate.Rows != 1000 {
			t.Errorf("%s: prognosis estimate %d rows, want the scan's 1000", c.sql, pr.Estimate.Rows)
		}
	}
}

// TestOneEstimate: Figure 3's one estimate reads each key column's NDV
// from the statistics of the table that owns it — a fact key and a joined
// dimension's key each their own — counts sqrt(rows) for a derived key,
// and caps the product at rows. EXPLAIN's prognosis and the runtime
// decision run the same function, so on an unfiltered input EXPLAIN's
// groups~ is the runtime estimate.
func TestOneEstimate(t *testing.T) {
	const rows = 120_000
	e := newTestEngine(t, rows)
	sales := &plan.Scan{Table: "sales"}
	joined := &plan.Join{Left: sales, Table: "stores", LeftCol: "s_store_sk", RightCol: "st_store_sk"}
	derived := &plan.Derive{Input: sales, Cols: []plan.DerivedCol{{Name: "_k", Expr: expr.Int(1)}}}
	for _, c := range []struct {
		name  string
		input plan.Node
		keys  []string
		rows  int64
		want  int64
	}{
		{"fact and dimension keys", joined, []string{"s_month", "st_region"}, rows, 12 * 2},
		{"dimension key", joined, []string{"st_name"}, rows, 10},
		{"derived key", derived, []string{"_k", "s_month"}, rows, int64(12*math.Sqrt(rows) + 0.5)},
		{"capped at rows", joined, []string{"s_month", "st_name"}, 100, 100},
	} {
		est := e.estimate(&plan.Aggregate{Input: c.input, Keys: c.keys}, nil, c.rows)
		if est.Rows != c.rows || est.Groups != c.want {
			t.Errorf("%s: estimate %d rows %d groups, want %d rows %d groups", c.name, est.Rows, est.Groups, c.rows, c.want)
		}
		if est.MemoryDemand <= 0 {
			t.Errorf("%s: no memory demand", c.name)
		}
	}

	const sql = "SELECT s_month, st_region, SUM(s_qty) AS t FROM sales JOIN stores ON s_store_sk = st_store_sk GROUP BY s_month, st_region"
	text, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "groups~24 ") {
		t.Errorf("EXPLAIN does not estimate 24 groups:\n%s", text)
	}
	rep, res, err := e.ExplainAnalyzeNamedCtx(context.Background(), "q", sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range res.Ops {
		if op.Agg != nil && op.Agg.Plan != nil {
			t.Errorf("the audit attached a plan to the engine's group-by row: %+v", op.Agg.Plan)
		}
	}
	for _, op := range rep.Ops {
		if g := op.Groupby; g != nil {
			if g.Plan == nil || g.Plan.Groups != g.Groups || g.Groups != 24 {
				t.Errorf("runtime estimate %d groups, prognosis %+v", g.Groups, g.Plan)
			}
			if g.Plan != nil && g.Plan.DemandBytes != g.DemandBytes {
				t.Errorf("runtime demand %d, prognosis %d", g.DemandBytes, g.Plan.DemandBytes)
			}
		}
	}
}

// TestHybridSortChargesOverlap: a sort with jobs on the host and on the
// devices is charged stats.Modeled, key generation plus the longer of the
// two, not their sum — the job queue runs them side by side.
func TestHybridSortChargesOverlap(t *testing.T) {
	const rows = 2 * bsort.DefaultGPUThreshold
	e := newTestEngine(t, rows)
	words := make([]uint32, rows)
	for i := range words {
		words[i] = uint32(i*7919) % rows
	}
	f, _ := tracedFrame(0, 0)
	_, stats, err := e.hybridSort(bsort.NewFlatKeySource(words, rows, 1), f, f.q.tc)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GPUJobs == 0 || stats.CPUTime <= 0 || stats.GPUTime <= 0 {
		t.Fatalf("sort of %d rows ran %d GPU jobs, host %v, device %v: want both sides busy", rows, stats.GPUJobs, stats.CPUTime, stats.GPUTime)
	}
	if f.modeled != stats.Modeled {
		t.Errorf("sort charged %v, want keygen + max(host, device) = %v (sum %v)",
			f.modeled, stats.Modeled, stats.KeyGen+stats.CPUTime+stats.GPUTime)
	}
}
