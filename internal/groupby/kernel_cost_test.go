package groupby

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/gpu"
	"blugpu/internal/vtime"
)

var update = flag.Bool("update", false, "rewrite golden files")

// eventLog keeps a device's events, one line each — kind, name, bytes,
// modeled-time bits — as internal/engine's device-events golden renders
// them.
type eventLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *eventLog) RecordGPUEvent(ev gpu.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf("%s %q %d %016x", ev.Kind, ev.Name, ev.Bytes, math.Float64bits(float64(ev.Modeled))))
}

// skewedKeys are TestKernelCostIgnoresInsertOrder's keys: 2048 groups
// skewed onto 64 spaced home slots, so long probe chains form.
func skewedKeys() []uint64 {
	const rows, groups = 40000, 2048
	keys := make([]uint64, rows)
	x := uint64(20160626)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u := x % groups
		g := u * u / groups
		keys[i] = g%64*64 + (g/64)<<20
	}
	return keys
}

// kernelCostCases are the inputs of the kernel-cost golden: every regime
// the moderator distinguishes, the error path and the race, including the
// kernel-1 and wide-key runs the workload never makes, then an ORDER BY
// ... LIMIT k over many groups, whose topk_select pays for itself, and
// over few, where shipping every group is cheaper.
func kernelCostCases() []struct {
	name string
	in   *Input
	race bool
	topK int
} {
	eight := make([]AggSpec, 8)
	for i := range eight {
		eight[i] = AggSpec{Kind: Sum, Type: columnar.Int64}
		if i%2 == 1 {
			eight[i] = AggSpec{Kind: Sum, Type: columnar.Float64}
		}
	}
	return []struct {
		name string
		in   *Input
		race bool
		topK int
	}{
		{"narrow-low-card", buildInput(makeKeys(30000, 12), stdAggs, 12), false, 0},
		{"skewed", buildInput(skewedKeys(), stdAggs, 2048), false, 0},
		{"wide-two-field", buildWideInput(8000, 250, []AggSpec{{Kind: Sum, Type: columnar.Int64}, {Kind: Count}}), false, 0},
		{"eight-aggs", buildInput(makeKeys(20000, 5000), eight, 5000), false, 0},
		{"low-estimate", buildInput(makeKeys(5000, 100), stdAggs, 40), false, 0},
		{"race", buildInput(makeKeys(20000, 12), stdAggs, 12), true, 0},
		{"topk-select", buildInput(makeKeys(40000, 20000), stdAggs, 20000), false, 100},
		{"topk-no-pay", buildInput(makeKeys(5000, 64), stdAggs, 64), false, 10},
	}
}

// kernelCostDigest runs every case under every kernel choice on a fresh
// device and renders what the run reported — kernel, retries, raced
// kernels, groups, the bits of KernelTime and Modeled, or the error — and
// the sorted device events.
func kernelCostDigest(t *testing.T) []byte {
	t.Helper()
	model := vtime.Default()
	var out bytes.Buffer
	for _, c := range kernelCostCases() {
		for _, k := range []Kernel{K1Regular, K2Shared, K3RowLock, KAuto} {
			log := &eventLog{}
			dev := gpu.NewDevice(0, vtime.TeslaK40(), gpu.WithSink(log))
			res := reserveFor(t, dev, c.in)
			r, err := RunGPU(c.in, 8, res, model, GPUOptions{Kernel: k, Race: c.race, Pinned: true, TopK: c.topK})
			res.Release()
			fmt.Fprintf(&out, "%s %s: ", c.name, k)
			switch {
			case errors.Is(err, ErrTableFull):
				fmt.Fprintf(&out, "err %v\n", err)
			case err != nil:
				t.Fatalf("%s %s: %v", c.name, k, err)
			default:
				st := r.Stats
				fmt.Fprintf(&out, "kernel %s retried %d raced %v groups %d kernel %016x modeled %016x",
					st.Kernel, st.Retried, st.Raced, r.Groups,
					math.Float64bits(float64(st.KernelTime)), math.Float64bits(float64(st.Modeled)))
				if c.topK > 0 {
					fmt.Fprintf(&out, " top-k %d kept %d", c.topK, st.Kept)
				}
				fmt.Fprintln(&out)
			}
			slices.Sort(log.lines)
			for _, l := range log.lines {
				fmt.Fprintf(&out, "  %s\n", l)
			}
		}
	}
	return out.Bytes()
}

// TestKernelCostGolden locks each kernel's modeled cost and device events
// to the bit over inputs the workload lap never produces — kernel 1, wide
// keys, the retry, the race — so that a change to how the kernels compute
// cannot move what they charge. -update rewrites it; only a change to a
// cost formula may.
func TestKernelCostGolden(t *testing.T) {
	got := kernelCostDigest(t)
	path := filepath.Join("testdata", "kernel_cost.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run `go test ./internal/groupby -run KernelCostGolden -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("kernel_cost.golden drifted\n--- got ---\n%s", got)
	}
}
