package monitor

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"blugpu/internal/gpu"
	"blugpu/internal/vtime"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestReportGolden locks the monitor's human-readable report to a golden
// file. The report prints only modeled (virtual-time) values, so its
// bytes are deterministic for a fixed event sequence; ordering drift in
// any accessor shows up here as a diff.
func TestReportGolden(t *testing.T) {
	m := New()
	for _, k := range []struct {
		name string
		d    vtime.Duration
	}{
		{"grpby_k1", 2 * vtime.Millisecond},
		{"grpby_k1", 3 * vtime.Millisecond},
		{"grpby_k2", 500 * vtime.Microsecond},
		{"radix_partition", vtime.Millisecond},
	} {
		m.RecordGPUEvent(gpu.Event{Kind: gpu.EventKernel, Name: k.name, Modeled: k.d})
	}
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventTransferH2D, Bytes: 1 << 20, Modeled: 100 * vtime.Microsecond})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventTransferD2H, Bytes: 1 << 18, Modeled: 40 * vtime.Microsecond})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventReserve})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventReserveFail})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventFault, Name: "kernel"})
	m.RecordEvaluator("LCOG", 4096, 250*vtime.Microsecond)
	m.RecordEvaluator("HASH", 4096, 700*vtime.Microsecond)
	m.RecordQuery("bd-complex-1", 4*vtime.Millisecond, true)
	m.RecordQuery("bd-complex-1", 5*vtime.Millisecond, false)
	m.RecordQuery("rolap-07", 2*vtime.Millisecond, true)
	m.RecordGPURetry("place", true)
	m.RecordFallback("groupby", false)
	m.RecordBreaker(1, true)

	var got bytes.Buffer
	m.Report(&got)
	// The report must render identically on a second call: accessors
	// must not mutate state or vary their ordering.
	var again bytes.Buffer
	m.Report(&again)
	if !bytes.Equal(got.Bytes(), again.Bytes()) {
		t.Fatal("two reports of the same monitor differ")
	}

	path := filepath.Join("testdata", "report_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run `go test ./internal/monitor -update`)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("report drifted from golden (run -update after reviewing)\n--- got ---\n%s", got.Bytes())
	}
}
