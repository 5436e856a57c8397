// Package bench regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulated testbed: BD Insights figures 5
// and 6, Cognos ROLAP figure 7 and table 2, the throughput matrix of
// table 3, the mixed concurrent workload of figure 8, the device-memory
// utilization series of figure 9, and the hash-table mask of table 1.
//
// Absolute numbers are modeled (the substrate is a simulator, not the
// authors' POWER8 + K40 testbed); the reproduced artifact is the *shape*:
// who wins, by what rough factor, and where the crossovers sit.
package bench

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"blugpu/internal/des"
	"blugpu/internal/engine"
	"blugpu/internal/fault"
	"blugpu/internal/optimizer"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

// Config sizes the benchmark environment.
type Config struct {
	// SF is the dataset scale factor (default 0.05 — the paper's 100 GB
	// instance scaled to laptop wall-clock).
	SF float64
	// Seed drives the deterministic generator.
	Seed uint64
	// Devices is the GPU count (default 2, like the testbed).
	Devices int
	// Degree is the default intra-query parallelism (default 24).
	Degree int
	// DeviceMemory overrides the per-device memory; 0 auto-calibrates so
	// that exactly the memory-heavy ROLAP queries exceed it, scaling the
	// K40's 12 GB to the scaled dataset.
	DeviceMemory int64
	// Race lets the GPU moderator race a second kernel per query.
	Race bool
	// NoFusion disables the fused device data path (and its column cache)
	// on every engine the harness builds — the control arm for fusion
	// A/B runs (`blucheck fuse`, TestFusionDifferential).
	NoFusion bool
	// Faults optionally injects GPU faults into the harness engine
	// (robustness experiments); nil disables injection.
	Faults *fault.Injector
	// Trace, when set, records per-query span trees across every engine
	// the harness builds (including the throughput and fault engines).
	Trace *trace.Tracer
}

// Harness owns the generated dataset and a hybrid engine.
type Harness struct {
	cfg  Config
	Data *workload.Dataset
	Eng  *engine.Engine
}

// NewHarness generates the dataset and boots the engine.
func NewHarness(cfg Config) (*Harness, error) {
	if cfg.SF <= 0 {
		cfg.SF = 0.05
	}
	if cfg.Seed == 0 {
		cfg.Seed = 20160626 // SIGMOD'16 opening day
	}
	if cfg.Devices <= 0 {
		cfg.Devices = 2
	}
	if cfg.Degree <= 0 {
		cfg.Degree = 24
	}
	h := &Harness{cfg: cfg}
	h.Data = workload.Generate(cfg.SF, cfg.Seed)
	eng, err := h.newEngine(cfg.Degree, cfg.DeviceMemory)
	if err != nil {
		return nil, err
	}
	h.Eng = eng
	if err := h.Data.RegisterAll(h.Eng); err != nil {
		return nil, err
	}
	return h, nil
}

// newEngine builds an engine over the harness dataset with the given
// degree and device memory (0 = full K40).
func (h *Harness) newEngine(degree int, devMem int64) (*engine.Engine, error) {
	spec := vtime.TeslaK40()
	if devMem > 0 {
		spec.DeviceMemory = devMem
	}
	return engine.New(engine.Config{
		Devices:    h.cfg.Devices,
		DeviceSpec: spec,
		Degree:     degree,
		Race:       h.cfg.Race,
		NoFusion:   h.cfg.NoFusion,
		Faults:     h.cfg.Faults,
		Tracer:     h.cfg.Trace,
	})
}

// QueryRun is one measured query execution.
type QueryRun struct {
	Query   workload.Query
	GPUOn   vtime.Duration
	GPUOff  vtime.Duration
	GPUUsed bool
	// WallOn/WallOff are the real elapsed times of the functional
	// execution on this machine. They track the host worker pool (engine
	// Degree), unlike the modeled columns, which simulate the paper's
	// testbed and are run-to-run stable.
	WallOn  time.Duration
	WallOff time.Duration
	// Reason is the group-by path note from the operator stats.
	Reason string
	// Demand is the largest device-memory demand the query placed.
	Demand int64
	// ProfileOn/ProfileOff feed the concurrency simulator.
	ProfileOn  des.Profile
	ProfileOff des.Profile
}

// Gain returns the fractional improvement of GPU-on over GPU-off.
func (r QueryRun) Gain() float64 {
	if r.GPUOff <= 0 {
		return 0
	}
	return 1 - r.GPUOn.Seconds()/r.GPUOff.Seconds()
}

// RunBoth executes a query with the GPU enabled and disabled on the same
// engine and returns both measurements.
func (h *Harness) RunBoth(q workload.Query) (QueryRun, error) {
	run := QueryRun{Query: q}
	h.Eng.SetGPUEnabled(true)
	start := time.Now()
	on, err := h.Eng.QueryNamed(q.ID, q.SQL)
	run.WallOn = time.Since(start)
	if err != nil {
		return run, fmt.Errorf("%s (gpu on): %w", q.ID, err)
	}
	h.Eng.SetGPUEnabled(false)
	start = time.Now()
	off, err := h.Eng.QueryNamed(q.ID, q.SQL)
	run.WallOff = time.Since(start)
	if err != nil {
		return run, fmt.Errorf("%s (gpu off): %w", q.ID, err)
	}
	h.Eng.SetGPUEnabled(true)

	run.GPUOn = on.Modeled
	run.GPUOff = off.Modeled
	run.GPUUsed = on.GPUUsed
	run.ProfileOn = on.Profile
	run.ProfileOn.Name = q.ID
	run.ProfileOff = off.Profile
	run.ProfileOff.Name = q.ID
	for _, op := range on.Ops {
		if op.Op == "groupby" {
			run.Reason = op.Detail
		}
	}
	for _, p := range on.Profile.Phases {
		if p.Kind == des.GPUPhase && p.Mem > run.Demand {
			run.Demand = p.Mem
		}
	}
	return run, nil
}

// RunSet measures a whole query set.
func (h *Harness) RunSet(qs []workload.Query) ([]QueryRun, error) {
	out := make([]QueryRun, 0, len(qs))
	for _, q := range qs {
		r, err := h.RunBoth(q)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ErrCannotCalibrate reports that the dataset is too small for the
// memory-gate experiment: at toy scales few queries take the device path,
// so no memory boundary separates a "heavy dozen". Callers run ungated.
var ErrCannotCalibrate = errors.New("bench: scale too small to calibrate the device-memory gate")

// CalibrateROLAPMemory runs all 46 ROLAP queries with full device memory,
// collects each query's device demand, and returns a scaled per-device
// memory that exactly the 12 largest demands exceed — the paper's "12 of
// the queries had memory requirements which exceeded the memory
// available", rescaled to the generated dataset.
func (h *Harness) CalibrateROLAPMemory() (int64, []QueryRun, error) {
	runs, err := h.RunSet(workload.CognosROLAP())
	if err != nil {
		return 0, nil, err
	}
	demands := make([]int64, 0, len(runs))
	for _, r := range runs {
		demands = append(demands, r.Demand)
	}
	sort.Slice(demands, func(a, b int) bool { return demands[a] > demands[b] })
	if len(demands) < 13 {
		return 0, runs, fmt.Errorf("bench: too few ROLAP queries for calibration")
	}
	// Memory between the 12th and 13th largest demand: the dozen heavy
	// queries exceed it, everything else fits.
	mem := (demands[11] + demands[12]) / 2
	if mem <= 0 || demands[11] == demands[12] {
		return 0, runs, ErrCannotCalibrate
	}
	return mem, runs, nil
}

// --- formatting helpers ---

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

func rule(w io.Writer, n int) {
	fmt.Fprintln(w, strings.Repeat("-", n))
}

func ms(d vtime.Duration) string { return fmt.Sprintf("%.2f", d.Milliseconds()) }

func pct(f float64) string { return fmt.Sprintf("%+.1f%%", f*100) }

// thresholdsNote renders the active Figure-3 thresholds.
func thresholdsNote(w io.Writer) {
	th := optimizer.DefaultThresholds()
	fmt.Fprintf(w, "thresholds: T1=%d rows, T2=%d groups, T3=%d rows\n",
		th.T1Rows, th.T2Groups, th.T3Rows)
}
