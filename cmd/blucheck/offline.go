package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"blugpu/internal/bench"
	"blugpu/internal/explain"
	"blugpu/internal/trace"
	"blugpu/internal/workload"
)

// checkTrace validates the Chrome trace-event JSON `blubench -trace`
// (or `\trace save` in blushell) exports against the schema the
// exporter promises: a JSON array of complete ("ph":"X") events, each
// with name, cat, non-negative ts/dur and pid/tid. The export is its
// own step (`make smoke` runs it) so the binary's -trace path is what
// gets validated, not a copy of it; likewise -explain below.
func checkTrace(c *check) error {
	path := filepath.Join(c.dir, "trace.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := trace.ValidateChrome(data); err != nil {
		return err
	}
	c.logf("%s: valid trace-event JSON (%d bytes)", path, len(data))
	return nil
}

// checkExplain validates the JSON array of EXPLAIN ANALYZE reports
// `blubench -explain` writes: every element must pass the schema
// validator, decode cleanly, and be fully reconciled.
func checkExplain(c *check) error {
	path := filepath.Join(c.dir, "explain.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("%s: not a JSON array of reports: %w", path, err)
	}
	if len(raw) == 0 {
		return fmt.Errorf("%s: empty report array", path)
	}
	bad := 0
	for i, doc := range raw {
		rep, err := reconciledReport(doc)
		if err != nil {
			c.logf("report %d: %v", i, err)
			bad++
			continue
		}
		c.logf("%s: %d operators, %.3f ms, reconciled", rep.Query, len(rep.Ops), rep.ModeledMs)
	}
	if bad > 0 {
		return fmt.Errorf("%s: %d of %d reports invalid or unreconciled", path, bad, len(raw))
	}
	return nil
}

// reconciledReport is the full EXPLAIN ANALYZE acceptance: schema,
// decode, and reconciliation — zero unattributed operators, zero
// orphaned device events, no monitor-vs-span-tree counter mismatches.
func reconciledReport(doc []byte) (*explain.Report, error) {
	if err := explain.ValidateReport(doc); err != nil {
		return nil, err
	}
	rep, err := explain.Decode(doc)
	if err != nil {
		return nil, err
	}
	if !rep.Reconciled() {
		return nil, fmt.Errorf("%s: not reconciled: unattributed=%d orphans=%d mismatches=%v",
			rep.Query, rep.Unattributed, rep.Orphans, rep.Totals.Mismatches)
	}
	return rep, nil
}

// checkFuse is the data-path fusion check: two harnesses over the same
// generated dataset — one with the fused device pipeline, one with it
// disabled — run the full BD Insights and Cognos ROLAP sets, and must
// show
//
//   - identical result tables (fusion is a pure transfer optimization;
//     any drift is a correctness bug) under bench.DiffResults, the rule
//     the differential tests use: integers, strings and NULLs exact,
//     floats to 1e-9 relative, because float SUMs accumulate through
//     racing device atomics and their last bits depend on thread order
//     whichever path runs, and
//   - a real H2D byte reduction with at least one fused chain executed
//     (otherwise the fused path silently stopped engaging).
func checkFuse(c *check) error {
	fused, err := bench.NewHarness(bench.Config{SF: sfGPU})
	if err != nil {
		return err
	}
	staged, err := bench.NewHarness(bench.Config{SF: sfGPU, NoFusion: true})
	if err != nil {
		return err
	}
	qs := append(workload.BDInsights(), workload.CognosROLAP()...)
	mismatches := 0
	for _, q := range qs {
		want, err := staged.Eng.QueryNamed(q.ID, q.SQL)
		if err != nil {
			return fmt.Errorf("%s (fusion off): %w", q.ID, err)
		}
		got, err := fused.Eng.QueryNamed(q.ID, q.SQL)
		if err != nil {
			return fmt.Errorf("%s (fusion on): %w", q.ID, err)
		}
		if msg := bench.DiffResults(want, got); msg != "" {
			mismatches++
			c.logf("%s: fused result differs from staged: %s", q.ID, msg)
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d of %d queries differ between fused and staged runs", mismatches, len(qs))
	}
	c.logf("%d queries identical across fused and staged runs", len(qs))

	chains, saved, uploaded := fused.Eng.Monitor().FusedStats()
	h2dOn, _ := fused.Eng.Monitor().Transfers()
	h2dOff, _ := staged.Eng.Monitor().Transfers()
	c.logf("fused chains=%d saved=%d B cache fills=%d B", chains, saved, uploaded)
	c.logf("H2D bytes %d (staged) -> %d (fused), %+.1f%%",
		h2dOff.Bytes, h2dOn.Bytes, 100*(float64(h2dOn.Bytes)/float64(h2dOff.Bytes)-1))
	if chains == 0 {
		return errors.New("no fused chains executed — the fused path never engaged")
	}
	if h2dOn.Bytes >= h2dOff.Bytes {
		return errors.New("fusion did not reduce H2D traffic")
	}
	return nil
}
