package bench

// The modeled-time lock: the four-experiment suite below — the BD
// Insights complex and intermediate sets, the memory-gated ROLAP set and
// the Figure-8 mixed-workload makespans — rendered statement by statement
// with every modeled time as its exact float bits. Modeled time is a pure
// function of (sf, seed, config), so the rendering is one file on any
// machine at any GOMAXPROCS, and any change to a cost, a decision, a
// kernel or a byte moved shows up as a diff. Regenerate only after an
// intended modeled change, and state the delta in CHANGES.md:
//
//	go test ./internal/bench -run ModeledGolden -update

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"blugpu/internal/des"
	"blugpu/internal/monitor"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

// modeledConfig is the suite's configuration: 0.02 is the smallest scale
// at which the optimizer routes work to the GPU, so every execution path
// (CPU evaluators, GPU kernels, the memory gate, the concurrency
// simulator) is on the ledger.
var modeledConfig = Config{SF: 0.02, Seed: 20160626, Devices: 2, Degree: 24}

// gpuActivity is what a monitor has counted: kernel executions, bytes
// moved each way, and the KMV group-count estimator's error samples.
type gpuActivity struct {
	kernels  uint64
	h2d, d2h int64
	kmvN     uint64
	kmvSum   float64
}

func activity(m *monitor.Monitor) gpuActivity {
	var a gpuActivity
	for _, k := range m.Kernels() {
		a.kernels += k.Count
	}
	h2d, d2h := m.Transfers()
	a.h2d, a.d2h = h2d.Bytes, d2h.Bytes
	kmv := m.KMVError()
	a.kmvN, a.kmvSum = kmv.Count, kmv.Sum
	return a
}

func (a gpuActivity) minus(b gpuActivity) gpuActivity {
	return gpuActivity{a.kernels - b.kernels, a.h2d - b.h2d, a.d2h - b.d2h, a.kmvN - b.kmvN, a.kmvSum - b.kmvSum}
}

// modeledExperiment is one experiment of the suite as it ran.
type modeledExperiment struct {
	name  string
	runs  []QueryRun
	gated []bool // rolap_gated only: runs[i] exceeded device memory
	mem   int64  // rolap_gated only: the calibrated device memory
	gpu   gpuActivity
	// on and off are the mixed_makespan simulations, GPU on and off.
	on, off *des.Result
}

// modeledLedger is the whole suite plus the harness engine's counters
// after it ran.
type modeledLedger struct {
	exps                   []modeledExperiment
	gpu                    gpuActivity
	reserveOK, reserveFail uint64
	placements, placeFails uint64
}

// runModeledSuite runs the four experiments in order on one harness.
func runModeledSuite(t *testing.T) *modeledLedger {
	t.Helper()
	h, err := NewHarness(modeledConfig)
	if err != nil {
		t.Fatal(err)
	}
	l := &modeledLedger{}
	for _, set := range []struct {
		name  string
		class workload.Class
	}{{"bd_complex", workload.Complex}, {"bd_intermediate", workload.Intermediate}} {
		before := activity(h.Eng.Monitor())
		runs, err := h.RunSet(workload.Filter(workload.BDInsights(), set.class))
		if err != nil {
			t.Fatalf("%s: %v", set.name, err)
		}
		l.exps = append(l.exps, modeledExperiment{name: set.name, runs: runs, gpu: activity(h.Eng.Monitor()).minus(before)})
	}

	// ROLAP runs on its own memory-calibrated engine, whose monitor
	// counts only this experiment.
	ran, gated, mem, mon, err := h.rolapGated()
	if err != nil {
		t.Fatalf("rolap_gated: %v", err)
	}
	rolap := modeledExperiment{name: "rolap_gated", runs: append(ran, gated...), mem: mem, gpu: activity(mon)}
	rolap.gated = make([]bool, len(rolap.runs))
	for i := len(ran); i < len(rolap.gated); i++ {
		rolap.gated[i] = true
	}
	l.exps = append(l.exps, rolap)

	before := activity(h.Eng.Monitor())
	on, off, err := h.Fig8(io.Discard)
	if err != nil {
		t.Fatalf("mixed_makespan: %v", err)
	}
	l.exps = append(l.exps, modeledExperiment{name: "mixed_makespan", gpu: activity(h.Eng.Monitor()).minus(before), on: on, off: off})

	l.gpu = activity(h.Eng.Monitor())
	l.reserveOK, l.reserveFail = h.Eng.Monitor().ReserveCounts()
	l.placements, l.placeFails = h.Eng.Scheduler().PlaceCounts()
	return l
}

// vbits renders a modeled duration exactly, then readably.
func vbits(d vtime.Duration) string {
	return fmt.Sprintf("%016x %.9fms", math.Float64bits(float64(d)), d.Milliseconds())
}

// render writes the ledger as the golden's text.
func (l *modeledLedger) render() []byte {
	var b bytes.Buffer
	c := modeledConfig
	fmt.Fprintf(&b, "# modeled-time lock: sf %g, seed %d, %d devices, degree %d\n", c.SF, c.Seed, c.Devices, c.Degree)
	fmt.Fprintf(&b, "# regenerate: go test ./internal/bench -run ModeledGolden -update\n")
	for _, e := range l.exps {
		n := len(e.runs)
		if e.on != nil {
			n = len(e.on.Queries)
		}
		kmvMean := 0.0
		if e.gpu.kmvN > 0 {
			kmvMean = e.gpu.kmvSum / float64(e.gpu.kmvN)
		}
		fmt.Fprintf(&b, "\nexperiment %s statements=%d kernels=%d h2d=%d d2h=%d kmv_samples=%d kmv_mean_rel_err=%v",
			e.name, n, e.gpu.kernels, e.gpu.h2d, e.gpu.d2h, e.gpu.kmvN, kmvMean)
		if e.gated != nil {
			fmt.Fprintf(&b, " device_memory=%d", e.mem)
		}
		b.WriteByte('\n')
		for i, r := range e.runs {
			fmt.Fprintf(&b, "  %s on %s off %s gpu=%t demand=%d", r.Query.ID, vbits(r.GPUOn), vbits(r.GPUOff), r.GPUUsed, r.Demand)
			if e.gated != nil {
				fmt.Fprintf(&b, " gated=%t", e.gated[i])
			}
			fmt.Fprintf(&b, " reason=%q\n", r.Reason)
		}
		if e.on != nil {
			fmt.Fprintf(&b, "  makespan on %s off %s\n", vbits(e.on.Makespan), vbits(e.off.Makespan))
			for _, arm := range []struct {
				name string
				res  *des.Result
			}{{"on", e.on}, {"off", e.off}} {
				for _, q := range arm.res.Queries {
					fmt.Fprintf(&b, "  %s stream=%d index=%d %s end %s\n",
						arm.name, q.Stream, q.Index, q.Name, vbits(vtime.Duration(q.End)))
				}
			}
		}
	}
	fmt.Fprintf(&b, "\ncounters kernels=%d h2d=%d d2h=%d reserve_ok=%d reserve_fail=%d placements=%d place_fails=%d\n",
		l.gpu.kernels, l.gpu.h2d, l.gpu.d2h, l.reserveOK, l.reserveFail, l.placements, l.placeFails)
	return b.Bytes()
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return "no difference"
}

// TestModeledGolden renders the suite at GOMAXPROCS 1 and 8 and holds
// both renderings to testdata/modeled.golden byte for byte: the host's
// core count is no input to modeled time. Its one-ulp subtest is the
// lock's self-test.
func TestModeledGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ledger *modeledLedger
	var got []byte
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		l := runModeledSuite(t)
		r := l.render()
		if ledger == nil {
			ledger, got = l, r
		} else if !bytes.Equal(r, got) {
			t.Fatalf("rendering at GOMAXPROCS %d differs from GOMAXPROCS 1 at %s", procs, firstDiff(r, got))
		}
	}

	golden := filepath.Join("testdata", "modeled.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("modeled time drifted from %s at %s\n(regenerate with -update only after an intended modeled change)",
			golden, firstDiff(got, want))
	}

	// One ulp on one statement's GPU-on time must break the lock.
	t.Run("one-ulp", func(t *testing.T) {
		r := &ledger.exps[0].runs[0]
		r.GPUOn = vtime.Duration(math.Nextafter(float64(r.GPUOn), math.Inf(1)))
		if bytes.Equal(ledger.render(), want) {
			t.Fatalf("moving %s's GPU-on time by one ulp left the rendering equal to the golden", r.Query.ID)
		}
	})
}
