package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"blugpu/internal/bench"
	"blugpu/internal/explain"
	"blugpu/internal/trace"
)

// TestExportsValidate drives blubench's two export paths the way
// `blubench -sf 0.004 -trace F -explain G fig5` does: a traced fig5
// written through the same ExportChrome call main makes, and the explain
// suite through writeExplainReports. The trace must be valid Chrome
// trace-event JSON; the reports a non-empty JSON array, each of which
// passes the schema, decodes and is fully reconciled.
func TestExportsValidate(t *testing.T) {
	dir := t.TempDir()
	tracer := trace.New()
	h, err := bench.NewHarness(bench.Config{SF: 0.004, Trace: tracer})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Run("fig5", io.Discard); err != nil {
		t.Fatal(err)
	}

	tracePath := filepath.Join(dir, "trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.ExportChrome(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(data); err != nil {
		t.Errorf("trace export: %v", err)
	}

	explainPath := filepath.Join(dir, "explain.json")
	if err := writeExplainReports(h, explainPath); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(explainPath); err != nil {
		t.Fatal(err)
	}
	var docs []json.RawMessage
	if err := json.Unmarshal(data, &docs); err != nil || len(docs) != len(explainSuite) {
		t.Fatalf("explain export: want a JSON array of %d reports (%v)", len(explainSuite), err)
	}
	for i, doc := range docs {
		if err := explain.ValidateReport(doc); err != nil {
			t.Errorf("report %d: %v", i, err)
			continue
		}
		rep, err := explain.Decode(doc)
		if err != nil {
			t.Errorf("report %d: %v", i, err)
		} else if !rep.Reconciled() {
			t.Errorf("%s: not reconciled: unattributed=%d orphans=%d mismatches=%v",
				rep.Query, rep.Unattributed, rep.Orphans, rep.Totals.Mismatches)
		}
	}
}
