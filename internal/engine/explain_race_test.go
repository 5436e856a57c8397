package engine

import (
	"context"
	"sync"
	"testing"

	"blugpu/internal/trace"
)

// TestConcurrentExplainAudits runs several EXPLAIN ANALYZE audits on
// one engine at once. The audited epoch — the hostmem watermark reset,
// the monitor deltas, the temporary tracer — is serialized on the
// engine's explainMu, so every report must come back individually sane:
// reconciled, with a positive pinned-host watermark and per-device busy
// deltas that were not polluted by the sibling audits. Run under -race
// this also proves the watermark reset itself is data-race free.
func TestConcurrentExplainAudits(t *testing.T) {
	e := newTestEngine(t, 60_000)
	const sql = "SELECT s_month, SUM(s_qty) AS t FROM sales GROUP BY s_month ORDER BY t DESC"

	// Reference audit, unloaded: the concurrent reports must match its
	// shape (same kernels, same watermark-bearing memory section).
	ref, _, err := e.ExplainAnalyzeNamedCtx(context.Background(), "race-ref", sql)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Reconciled() {
		t.Fatalf("reference audit not reconciled: %v", ref.Totals.Mismatches)
	}

	const workers = 4
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	type audit struct {
		watermark int64
		kernels   uint64
		busyOK    bool
	}
	audits := make(chan audit, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rep, res, err := e.ExplainAnalyzeNamedCtx(context.Background(), "", sql)
				if err != nil {
					errs <- err
					return
				}
				if res == nil || res.Table == nil {
					continue
				}
				var busy float64
				for _, d := range rep.Resources {
					busy += d.BusyMs
				}
				audits <- audit{
					watermark: rep.Memory.HostWatermarkBytes,
					kernels:   rep.Totals.Kernels,
					busyOK:    busy >= 0,
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	close(audits)
	for err := range errs {
		t.Fatal(err)
	}
	n := 0
	for a := range audits {
		n++
		// The watermark is rearmed per audit; a serialized epoch sees
		// exactly this query's pinned-host footprint — the same as the
		// unloaded reference, never a sibling's accumulation on top.
		if a.watermark != ref.Memory.HostWatermarkBytes {
			t.Errorf("audit watermark %d B != reference %d B (epoch not isolated)",
				a.watermark, ref.Memory.HostWatermarkBytes)
		}
		if a.kernels != ref.Totals.Kernels {
			t.Errorf("audit counted %d kernels, reference %d (delta polluted)",
				a.kernels, ref.Totals.Kernels)
		}
		if !a.busyOK {
			t.Error("negative per-device busy delta")
		}
	}
	if n != workers*rounds {
		t.Fatalf("%d audits completed, want %d", n, workers*rounds)
	}
}

// attachOnErr is a context whose first Err call — the engine polls it
// between operators — attaches a tracer to the engine: a deterministic
// stand-in for an operator switching tracing on while an audit runs.
type attachOnErr struct {
	context.Context
	e    *Engine
	tr   *trace.Tracer
	once sync.Once
}

func (c *attachOnErr) Err() error {
	c.once.Do(func() { c.e.SetTracer(c.tr) })
	return c.Context.Err()
}

// TestAuditKeepsTracerAttachedMeanwhile: an audit on an untraced engine
// installs a temporary tracer and removes it afterwards — but only its
// own. A tracer attached by SetTracer while the audit ran must survive
// the teardown.
func TestAuditKeepsTracerAttachedMeanwhile(t *testing.T) {
	e := newTestEngine(t, 1_000)
	mine := trace.New()
	ctx := &attachOnErr{Context: context.Background(), e: e, tr: mine}
	if _, _, err := e.ExplainAnalyzeNamedCtx(ctx, "", "SELECT s_month, SUM(s_qty) AS t FROM sales GROUP BY s_month"); err != nil {
		t.Fatal(err)
	}
	if e.Tracer() != mine {
		t.Fatalf("audit teardown replaced the tracer attached while it ran: got %p, want %p", e.Tracer(), mine)
	}

	// And with nothing attached meanwhile, the temporary one still goes.
	e.SetTracer(nil)
	if _, _, err := e.ExplainAnalyzeNamedCtx(context.Background(), "", "SELECT s_month FROM sales LIMIT 3"); err != nil {
		t.Fatal(err)
	}
	if e.Tracer() != nil {
		t.Fatal("audit left its temporary tracer attached")
	}
}
