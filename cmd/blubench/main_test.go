package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"blugpu/internal/bench"
	"blugpu/internal/explain"
	"blugpu/internal/trace"
)

// TestMain runs blubench's main instead of the tests when the test binary
// is started with BLUBENCH_MAIN set, so a test can drive the command's
// own flag parsing.
func TestMain(m *testing.M) {
	if os.Getenv("BLUBENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// gainRows keeps the modeled columns — query, GPU on, GPU off, gain — of
// an experiment table's rows, dropping the wall-clock ones.
func gainRows(out string) []string {
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 6 && strings.HasSuffix(f[3], "%") {
			rows = append(rows, strings.Join(f[:4], " "))
		}
	}
	return rows
}

// TestNoFusionFlag: `blubench -nofusion fig5` prints the table of a
// harness built with bench.Config.NoFusion, which at sf 0.02 is not the
// default arm's.
func TestNoFusionFlag(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-sf", "0.02", "-nofusion", "fig5")
	cmd.Env = append(os.Environ(), "BLUBENCH_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("blubench -nofusion: %v\n%s", err, out)
	}
	arm := func(noFusion bool) []string {
		h, err := bench.NewHarness(bench.Config{SF: 0.02, NoFusion: noFusion})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := h.Run("fig5", &buf); err != nil {
			t.Fatal(err)
		}
		return gainRows(buf.String())
	}
	got, want, def := gainRows(string(out)), arm(true), arm(false)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("blubench -nofusion fig5 printed\n%s\nwant NoFusion's\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if slices.Equal(want, def) {
		t.Fatalf("NoFusion and the default arm print the same fig5 at sf 0.02:\n%s", strings.Join(def, "\n"))
	}
}

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
