package engine

import (
	"context"
	"sync"
	"testing"
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
