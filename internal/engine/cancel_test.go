package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"blugpu/internal/columnar"
	"blugpu/internal/trace"
)

// countdownCtx is a context.Context whose Err() flips to Canceled after
// a fixed number of checks. It lets the cancellation tests hit every
// operator-boundary check deterministically: run once counting the
// checks, then sweep cancel-at-k over each of them. Done() returning a
// nil channel is legal per the context contract ("Done may return nil
// if this context can never be canceled") — the engine only polls Err.
type countdownCtx struct {
	remaining int // cancel once this many Err() calls have happened; <0 = never
	checks    int
}

func (c *countdownCtx) Deadline() (time.Time, bool)       { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}             { return nil }
func (c *countdownCtx) Value(key interface{}) interface{} { return nil }
func (c *countdownCtx) Err() error {
	c.checks++
	if c.remaining >= 0 && c.checks > c.remaining {
		return context.Canceled
	}
	return nil
}

// newCancelTestEngine mirrors newTestEngine but disables fusion: the
// fusion cache legitimately holds device reservations across queries, so
// only a fusion-free engine can assert that a canceled query leaves
// every device and the host registry completely clean.
func newCancelTestEngine(t *testing.T, rows int) *Engine {
	t.Helper()
	e, err := New(Config{Devices: 2, Degree: 8, NoFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	sk := columnar.NewInt64Builder("s_store_sk")
	month := columnar.NewInt64Builder("s_month")
	qty := columnar.NewInt64Builder("s_qty")
	price := columnar.NewFloat64Builder("s_price")
	for i := 0; i < rows; i++ {
		sk.Append(int64(i % 10))
		month.Append(int64(i%12 + 1))
		qty.Append(int64(i%7 + 1))
		price.Append(float64(i%100) + 0.5)
	}
	sales := columnar.MustNewTable("sales", sk.Build(), month.Build(), qty.Build(), price.Build())
	if err := e.Register(sales); err != nil {
		t.Fatal(err)
	}
	dk := columnar.NewInt64Builder("st_store_sk")
	region := columnar.NewStringBuilder("st_region")
	for i := 0; i < 10; i++ {
		dk.Append(int64(i))
		if i%2 == 0 {
			region.Append("east")
		} else {
			region.Append("west")
		}
	}
	stores := columnar.MustNewTable("stores", dk.Build(), region.Build())
	if err := e.Register(stores); err != nil {
		t.Fatal(err)
	}
	return e
}

func assertClean(t *testing.T, e *Engine, when string) {
	t.Helper()
	if inUse := e.registry.InUse(); inUse != 0 {
		t.Errorf("%s: host registry holds %d bytes, want 0", when, inUse)
	}
	for _, d := range e.Devices() {
		if d.FreeMemory() != d.TotalMemory() {
			t.Errorf("%s: device %d holds %d reserved bytes, want 0",
				when, d.ID(), d.TotalMemory()-d.FreeMemory())
		}
	}
}

// TestQueryCtxCancellation sweeps cancellation across every operator
// boundary of a deep plan (scan→filter→derive→join→group-by→sort→limit)
// and proves each cut point (a) surfaces context.Canceled, (b) never
// CPU-falls-back into a completed result, and (c) releases every host
// and device reservation on unwind.
func TestQueryCtxCancellation(t *testing.T) {
	const sql = `SELECT st_region, SUM(s_qty) AS total, AVG(s_price) AS avgp
		FROM sales JOIN stores ON s_store_sk = st_store_sk
		WHERE s_month <= 6 GROUP BY st_region ORDER BY st_region LIMIT 5`

	// Pass 1: count the cancellation checks this plan performs.
	e := newCancelTestEngine(t, 4000)
	probe := &countdownCtx{remaining: -1}
	if _, err := e.QueryNamedCtxAttrs(probe, "", sql); err != nil {
		t.Fatal(err)
	}
	total := probe.checks
	if total < 8 {
		t.Fatalf("expected at least one check per operator boundary, got %d", total)
	}
	assertClean(t, e, "after clean run")

	// Pass 2: cancel at every check point, each on a fresh engine so a
	// leaked reservation cannot hide behind an earlier run's.
	for k := 0; k < total; k++ {
		e := newCancelTestEngine(t, 4000)
		res, err := e.QueryNamedCtxAttrs(&countdownCtx{remaining: k}, "", sql)
		if err == nil {
			t.Fatalf("cancel at check %d/%d: query completed, want cancellation", k, total)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at check %d/%d: error %v does not wrap context.Canceled", k, total, err)
		}
		if !strings.Contains(err.Error(), "canceled") {
			t.Fatalf("cancel at check %d/%d: error %q should say canceled", k, total, err)
		}
		if res != nil {
			t.Fatalf("cancel at check %d/%d: got a result alongside the error", k, total)
		}
		assertClean(t, e, "after canceled run")
	}
}

// TestQueryCtxPreCanceled proves an already-canceled context stops the
// query before any operator runs.
func TestQueryCtxPreCanceled(t *testing.T) {
	e := newCancelTestEngine(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryNamedCtxAttrs(ctx, "", "SELECT s_month FROM sales WHERE s_month = 3"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled query returned %v, want context.Canceled", err)
	}
	assertClean(t, e, "after pre-canceled query")
}

// TestQueryCtxDeadline proves deadline expiry surfaces as
// context.DeadlineExceeded through the same path.
func TestQueryCtxDeadline(t *testing.T) {
	e := newCancelTestEngine(t, 100)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.QueryNamedCtxAttrs(ctx, "", "SELECT s_month FROM sales WHERE s_month = 3"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired query returned %v, want context.DeadlineExceeded", err)
	}
}

// TestQueryCtxBackgroundUnchanged pins that the ctx-free entry points
// still work and that a canceled sibling does not disturb them.
func TestQueryCtxBackgroundUnchanged(t *testing.T) {
	e := newCancelTestEngine(t, 2000)
	const sql = "SELECT s_month, SUM(s_qty) AS total FROM sales GROUP BY s_month"
	want, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryNamedCtxAttrs(ctx, "", sql); err == nil {
		t.Fatal("canceled query should error")
	}
	got, err := e.QueryNamedCtxAttrs(context.Background(), "", sql)
	if err != nil {
		t.Fatal(err)
	}
	if want.Table.Rows() != got.Table.Rows() {
		t.Fatalf("rows %d != %d after canceled sibling", got.Table.Rows(), want.Table.Rows())
	}
}

// TestQueryNamedCtxAttrs proves serve-layer admission attributes land on
// the query root span.
func TestQueryNamedCtxAttrs(t *testing.T) {
	e := newCancelTestEngine(t, 500)
	tr := trace.New()
	e.SetTracer(tr)
	_, err := e.QueryNamedCtxAttrs(context.Background(), "attributed",
		"SELECT s_month FROM sales WHERE s_month = 3",
		trace.Str("serve.class", "simple"), trace.Int("serve.wait_us", 42))
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, sp := range tr.Spans() {
		if sp.Cat != "query" || sp.Name != "attributed" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "serve.class" && a.Str == "simple" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("serve.class attribute not found on query root span")
	}
}
