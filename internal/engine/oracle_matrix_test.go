package engine

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"blugpu/internal/fault"
	"blugpu/internal/optimizer"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

// TestOracleMatrix holds the engine to one answer per statement: all 146
// workload statements at degree 8, GPU on (fused), GPU on with NoFusion,
// GPU on under a 0.1 fault rate at every site and with device 0 dead, each
// both fused and with NoFusion (the staged path reads its input through
// the same row lists), and GPU off, each at GOMAXPROCS 1, 2 and 8. The GPU
// arms run with T1 = 1 and a 256-row sort threshold, so every group-by and
// most sorts take the device path. Every one of the twenty-one runs must
// render each statement's result to the same bytes — a device kernel
// answers with the CPU path's aggregation loop and a faulted attempt falls
// back to it, so which path ran cannot move a bit — and within a
// configuration, each statement's modeled time must be bit-identical at
// every GOMAXPROCS: the host's core count is no input, and the injector
// draws by a (seed, site, device, n) counter on the query's goroutine, so
// neither is which faults fire. Every run's operator rows must tile the
// statement's modeled time (tileOps).
func TestOracleMatrix(t *testing.T) {
	ds := workload.Generate(0.02, 20160626)
	qs := workloadQueries()
	// faults builds each run's own injector, so no run inherits another's
	// draw counters or dead devices.
	faultRate := func() *fault.Injector {
		return fault.New(fault.Config{Seed: 20160626, Reserve: 0.1, H2D: 0.1, D2H: 0.1, Kernel: 0.1})
	}
	deviceDead := func() *fault.Injector {
		inj := fault.New(fault.Config{Seed: 20160626})
		inj.KillDevice(0)
		return inj
	}
	configs := []struct {
		name     string
		gpu      bool
		noFusion bool
		faults   func() *fault.Injector
	}{
		{"gpu-on", true, false, nil},
		{"nofusion", true, true, nil},
		{"fault-0.1", true, false, faultRate},
		{"device-dead", true, false, deviceDead},
		{"nofusion-fault-0.1", true, true, faultRate},
		{"nofusion-device-dead", true, true, deviceDead},
		{"gpu-off", false, false, nil},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var answers [][]byte // per statement, from the first run
	for _, c := range configs {
		var modeled []vtime.Duration // per statement, from GOMAXPROCS 1
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			var inj *fault.Injector
			if c.faults != nil {
				inj = c.faults()
			}
			e, err := New(Config{
				Devices:          2,
				Degree:           8,
				NoFusion:         c.noFusion,
				Thresholds:       optimizer.Thresholds{T1Rows: 1, T3Rows: 1 << 40},
				GPUSortThreshold: 256,
				Faults:           inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			e.SetGPUEnabled(c.gpu)
			if err := ds.RegisterAll(e); err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				res, err := e.QueryNamed(q.ID, q.SQL)
				if err != nil {
					t.Fatalf("%s GOMAXPROCS %d %s: %v", c.name, procs, q.ID, err)
				}
				if err := tileOps(res); err != nil {
					t.Errorf("%s GOMAXPROCS %d %s: %v", c.name, procs, q.ID, err)
				}
				got := canonicalResult(res.Table)
				if len(answers) < len(qs) {
					answers = append(answers, got)
				} else if !bytes.Equal(got, answers[i]) {
					t.Errorf("%s GOMAXPROCS %d %s: answer differs from gpu-on at GOMAXPROCS 1", c.name, procs, q.ID)
				}
				if procs == 1 {
					modeled = append(modeled, res.Modeled)
				} else if res.Modeled != modeled[i] {
					t.Errorf("%s %s: modeled %v at GOMAXPROCS %d, %v at 1", c.name, q.ID, res.Modeled, procs, modeled[i])
				}
			}
			if inj != nil && inj.Counts().Total() == 0 {
				t.Errorf("%s GOMAXPROCS %d: no fault fired", c.name, procs)
			}
		}
	}
}

// TestDefaultArmNeverLoses holds the extension to its claim statement by
// statement: resident columns, build tables and fused chains only remove
// work from the paper's path, so over a warm lap of the 146 statements (2
// devices, degree 24) at sf 0.02, 0.05 and 0.1, no statement runs longer
// in modeled time on the default arm than with NoFusion.
func TestDefaultArmNeverLoses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four laps of the workload at three scales")
	}
	qs := workloadQueries()
	for _, sf := range []float64{0.02, 0.05, 0.1} {
		ds := workload.Generate(sf, 20160626)
		warm := func(noFusion bool) []vtime.Duration {
			e, err := New(Config{Devices: 2, Degree: 24, NoFusion: noFusion})
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.RegisterAll(e); err != nil {
				t.Fatal(err)
			}
			modeled := make([]vtime.Duration, len(qs))
			for lap := 0; lap < 2; lap++ { // cold, then warm
				for i, q := range qs {
					res, err := e.QueryNamed(q.ID, q.SQL)
					if err != nil {
						t.Fatalf("sf %g %s: %v", sf, q.ID, err)
					}
					modeled[i] = res.Modeled
				}
			}
			return modeled
		}
		def, paper := warm(false), warm(true)
		lost := 0
		for i, q := range qs {
			if def[i] > paper[i] {
				lost++
				t.Errorf("sf %g %s: default %v > NoFusion %v", sf, q.ID, def[i], paper[i])
			}
		}
		t.Logf("sf %g: %d statements lose", sf, lost)
	}
}

// tileOps checks that a result's operator rows tile its modeled time:
// the first starts at the query's start, each next one where the one
// before it ended, the last ends at Result.Modeled, and each row's self
// time is its width. A charge made outside every row, or a row whose
// self time misses one of its charges, breaks it. The query runs
// untraced, so its clock starts at 0.
func tileOps(res *Result) error { return tileOpsAt(res, 0) }

// tileOpsAt is tileOps for a query whose clock starts at base: a traced
// query starts where the engine's clock stood.
func tileOpsAt(res *Result, base vtime.Time) error {
	at := base
	for i, op := range res.Ops {
		if op.Start != at {
			return fmt.Errorf("row %d (%s) starts at %v, the row before ends at %v", i, op.Op, op.Start, at)
		}
		w := op.End.Sub(op.Start)
		if d := math.Abs(float64(w - op.Modeled)); d > 1e-9*math.Max(math.Abs(float64(w)), math.Abs(float64(op.Modeled))) {
			return fmt.Errorf("row %d (%s) spans %v, self time %v", i, op.Op, w, op.Modeled)
		}
		at = op.End
	}
	if end := base.Add(res.Modeled); at != end {
		return fmt.Errorf("rows end at %v, the query at %v", at, end)
	}
	return nil
}
