package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"blugpu/internal/monitor"
	"blugpu/internal/workload"
)

// roundMs quantizes a modeled-millisecond value to 1e-6 ms (one modeled
// nanosecond), which keeps committed snapshots tidy while sitting many
// orders of magnitude below any real regression. Modeled time is
// run-to-run exact at a fixed GOMAXPROCS (kernel costs count probe
// displacement per key, not per racing row — DESIGN.md §3); the GPU-off
// columns still vary with GOMAXPROCS, so snapshots from machines with
// different core counts are not bit-comparable.
func roundMs(v float64) float64 { return math.Round(v*1e6) / 1e6 }

// SnapshotSchema versions the BENCH_<n>.json layout. Bump it when a
// field changes meaning; Compare refuses to diff across schema versions.
const SnapshotSchema = 1

// ExperimentSnap records one experiment's headline numbers. The modeled
// columns are deterministic for a given (SF, Seed, Devices, Degree) and
// are what the regression gate compares; WallMs is the real elapsed time
// on whatever machine took the snapshot and is informational only.
type ExperimentSnap struct {
	Name         string  `json:"name"`
	Queries      int     `json:"queries"`
	ModeledOnMs  float64 `json:"modeled_on_ms"`
	ModeledOffMs float64 `json:"modeled_off_ms"`
	WallMs       float64 `json:"wall_ms"`
	// KernelExecs and TransferBytes are the GPU activity the experiment
	// generated (deltas on the engine's monitor), so a plan change that
	// silently moves work off the device shows up even when modeled time
	// barely shifts.
	KernelExecs   uint64 `json:"kernel_execs"`
	TransferBytes int64  `json:"transfer_bytes"`
	// TransferH2DBytes/TransferD2HBytes split TransferBytes by direction.
	// H2D is gated lower-is-better: data-path work (fusion, caching) earns
	// its keep by cutting upload traffic, and a change that silently
	// re-inflates it fails the diff. Old baselines carry only the combined
	// TransferBytes; Compare falls back to it (historically all-H2D).
	TransferH2DBytes int64 `json:"transfer_h2d_bytes,omitempty"`
	TransferD2HBytes int64 `json:"transfer_d2h_bytes,omitempty"`
	// KMVMeanRelErr is the mean KMV group-count estimator relative error
	// across the experiment's group-bys — estimate-accountability
	// tracking, informational only (never gated).
	KMVMeanRelErr float64 `json:"kmv_mean_rel_err"`
}

// CounterSnap is the engine-wide counter state after the suite ran.
type CounterSnap struct {
	KernelExecs      uint64 `json:"kernel_execs"`
	TransferH2DBytes int64  `json:"transfer_h2d_bytes"`
	TransferD2HBytes int64  `json:"transfer_d2h_bytes"`
	ReserveOK        uint64 `json:"reserve_ok"`
	ReserveFail      uint64 `json:"reserve_fail"`
	Placements       uint64 `json:"placements"`
	PlaceFails       uint64 `json:"place_fails"`
}

// Snapshot is one benchdiff baseline: the configuration that produced it
// plus per-experiment results. Snapshots with different configurations
// are not comparable and Compare rejects them.
type Snapshot struct {
	Schema      int              `json:"schema"`
	SF          float64          `json:"sf"`
	Seed        uint64           `json:"seed"`
	Devices     int              `json:"devices"`
	Degree      int              `json:"degree"`
	Experiments []ExperimentSnap `json:"experiments"`
	Counters    CounterSnap      `json:"counters"`
}

// monitorTotals sums the kernel executions and per-direction transferred
// bytes a monitor has seen, for before/after deltas around an experiment.
func monitorTotals(m *monitor.Monitor) (kernels uint64, h2dBytes, d2hBytes int64) {
	for _, k := range m.Kernels() {
		kernels += k.Count
	}
	h2d, d2h := m.Transfers()
	return kernels, h2d.Bytes, d2h.Bytes
}

// kmvMean turns before/after KMV error histogram totals into the mean
// relative error of the samples recorded in between, quantized like the
// modeled columns so snapshots stay byte-comparable. Zero samples yield
// zero rather than NaN.
func kmvMean(s0 monitor.KMVErrorStats, s1 monitor.KMVErrorStats) float64 {
	n := s1.Count - s0.Count
	if n == 0 {
		return 0
	}
	return roundMs((s1.Sum - s0.Sum) / float64(n))
}

// TakeSnapshot runs the benchdiff experiment suite — the BD Insights
// complex and intermediate sets, the memory-gated ROLAP total, and the
// Figure-8 mixed-workload makespan — and returns the snapshot. The
// suite is a subset of the full experiment list chosen to cover every
// execution path (CPU evaluators, GPU kernels, the memory gate, the
// concurrency simulator) while staying fast enough for CI.
func TakeSnapshot(cfg Config) (*Snapshot, error) {
	h, err := NewHarness(cfg)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{
		Schema:  SnapshotSchema,
		SF:      h.cfg.SF,
		Seed:    h.cfg.Seed,
		Devices: h.cfg.Devices,
		Degree:  h.cfg.Degree,
	}

	// runSet measures one query set on the harness engine and appends
	// the experiment, attributing monitor deltas to it.
	runSet := func(name string, qs []workload.Query) error {
		k0, h0, d0 := monitorTotals(h.Eng.Monitor())
		kmv0 := h.Eng.Monitor().KMVError()
		start := time.Now()
		runs, err := h.RunSet(qs)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		wall := time.Since(start)
		k1, h1, d1 := monitorTotals(h.Eng.Monitor())
		e := ExperimentSnap{
			Name:             name,
			Queries:          len(runs),
			WallMs:           float64(wall.Nanoseconds()) / 1e6,
			KernelExecs:      k1 - k0,
			TransferBytes:    (h1 - h0) + (d1 - d0),
			TransferH2DBytes: h1 - h0,
			TransferD2HBytes: d1 - d0,
			KMVMeanRelErr:    kmvMean(kmv0, h.Eng.Monitor().KMVError()),
		}
		for _, r := range runs {
			e.ModeledOnMs += r.GPUOn.Milliseconds()
			e.ModeledOffMs += r.GPUOff.Milliseconds()
		}
		e.ModeledOnMs, e.ModeledOffMs = roundMs(e.ModeledOnMs), roundMs(e.ModeledOffMs)
		snap.Experiments = append(snap.Experiments, e)
		return nil
	}

	if err := runSet("bd_complex", workload.Filter(workload.BDInsights(), workload.Complex)); err != nil {
		return nil, err
	}
	if err := runSet("bd_intermediate", workload.Filter(workload.BDInsights(), workload.Intermediate)); err != nil {
		return nil, err
	}

	// ROLAP runs on its own memory-calibrated engine; its monitor is
	// fresh, so totals are the experiment's own counters.
	start := time.Now()
	ran, gated, _, mon, err := h.rolapGated()
	if err != nil {
		return nil, fmt.Errorf("rolap: %w", err)
	}
	rolap := ExperimentSnap{
		Name:    "rolap_gated",
		Queries: len(ran) + len(gated),
		WallMs:  float64(time.Since(start).Nanoseconds()) / 1e6,
	}
	rolap.KernelExecs, rolap.TransferH2DBytes, rolap.TransferD2HBytes = monitorTotals(mon)
	rolap.TransferBytes = rolap.TransferH2DBytes + rolap.TransferD2HBytes
	rolap.KMVMeanRelErr = kmvMean(monitor.KMVErrorStats{}, mon.KMVError())
	for _, r := range ran {
		rolap.ModeledOnMs += r.GPUOn.Milliseconds()
		rolap.ModeledOffMs += r.GPUOff.Milliseconds()
	}
	rolap.ModeledOnMs, rolap.ModeledOffMs = roundMs(rolap.ModeledOnMs), roundMs(rolap.ModeledOffMs)
	snap.Experiments = append(snap.Experiments, rolap)

	// Mixed concurrent workload: gate the two DES makespans.
	k0, h0, d0 := monitorTotals(h.Eng.Monitor())
	kmv0 := h.Eng.Monitor().KMVError()
	start = time.Now()
	onRes, offRes, err := h.Fig8(io.Discard)
	if err != nil {
		return nil, fmt.Errorf("mixed: %w", err)
	}
	k1, h1, d1 := monitorTotals(h.Eng.Monitor())
	mixed := ExperimentSnap{
		Name:             "mixed_makespan",
		Queries:          len(onRes.Queries),
		ModeledOnMs:      roundMs(onRes.Makespan.Seconds() * 1e3),
		ModeledOffMs:     roundMs(offRes.Makespan.Seconds() * 1e3),
		WallMs:           float64(time.Since(start).Nanoseconds()) / 1e6,
		KernelExecs:      k1 - k0,
		TransferBytes:    (h1 - h0) + (d1 - d0),
		TransferH2DBytes: h1 - h0,
		TransferD2HBytes: d1 - d0,
		KMVMeanRelErr:    kmvMean(kmv0, h.Eng.Monitor().KMVError()),
	}
	snap.Experiments = append(snap.Experiments, mixed)

	m := h.Eng.Monitor()
	snap.Counters.KernelExecs, _, _ = monitorTotals(m)
	h2d, d2h := m.Transfers()
	snap.Counters.TransferH2DBytes = h2d.Bytes
	snap.Counters.TransferD2HBytes = d2h.Bytes
	snap.Counters.ReserveOK, snap.Counters.ReserveFail = m.ReserveCounts()
	snap.Counters.Placements, snap.Counters.PlaceFails = h.Eng.Scheduler().PlaceCounts()
	return snap, nil
}

// WriteFile writes the snapshot as indented JSON.
func (s *Snapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadSnapshot loads a snapshot file.
func ReadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Regression is one gated metric that got worse than the threshold
// allows.
type Regression struct {
	Experiment string  `json:"experiment"`
	Metric     string  `json:"metric"`
	Base       float64 `json:"base"`
	Current    float64 `json:"current"`
	// Frac is the fractional change, current/base - 1.
	Frac float64 `json:"frac"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%s/%s: %.3f -> %.3f (%+.1f%%)", r.Experiment, r.Metric, r.Base, r.Current, r.Frac*100)
}

// Compare diffs cur against base and returns the regressions exceeding
// threshold (e.g. 0.05 allows 5% growth). Only the deterministic columns
// gate — modeled time and H2D bytes; wall_ms and the other counters are
// reported by WriteDiff but never fail the comparison. Snapshots from
// different configurations (schema, SF, seed, devices, degree) are not
// comparable and return an error. An experiment present in base but
// missing from cur is itself a regression.
func Compare(base, cur *Snapshot, threshold float64) ([]Regression, error) {
	if base.Schema != cur.Schema {
		return nil, fmt.Errorf("bench: snapshot schema mismatch: base %d, current %d", base.Schema, cur.Schema)
	}
	if base.SF != cur.SF || base.Seed != cur.Seed || base.Devices != cur.Devices || base.Degree != cur.Degree {
		return nil, fmt.Errorf("bench: snapshot config mismatch: base (sf=%g seed=%d devices=%d degree=%d), current (sf=%g seed=%d devices=%d degree=%d)",
			base.SF, base.Seed, base.Devices, base.Degree, cur.SF, cur.Seed, cur.Devices, cur.Degree)
	}
	curBy := make(map[string]ExperimentSnap, len(cur.Experiments))
	for _, e := range cur.Experiments {
		curBy[e.Name] = e
	}
	var regs []Regression
	for _, b := range base.Experiments {
		c, ok := curBy[b.Name]
		if !ok {
			regs = append(regs, Regression{Experiment: b.Name, Metric: "missing", Base: 1, Current: 0, Frac: -1})
			continue
		}
		check := func(metric string, base, cur float64) {
			if base <= 0 {
				return
			}
			// One quantum (1e-6 ms) of absolute tolerance: quantized
			// values within a ulp of a rounding boundary may land one
			// quantum apart across runs, and that must never trip even a
			// zero threshold.
			if cur-base <= 1e-6 {
				return
			}
			frac := cur/base - 1
			if frac > threshold {
				regs = append(regs, Regression{Experiment: b.Name, Metric: metric, Base: base, Current: cur, Frac: frac})
			}
		}
		check("modeled_on_ms", b.ModeledOnMs, c.ModeledOnMs)
		check("modeled_off_ms", b.ModeledOffMs, c.ModeledOffMs)
		// H2D transfer bytes gate lower-is-better: growth beyond the
		// threshold is a regression (the fused data path's savings must not
		// silently erode). The counter is deterministic, so the same
		// one-quantum tolerance story does not apply — but transfer sizes
		// are whole bytes, so the 1e-6 absolute slack in check is inert.
		// Baselines from before the direction split carry only the combined
		// TransferBytes, which was all-H2D (d2h was unaccounted then).
		baseH2D := float64(b.TransferH2DBytes)
		if b.TransferH2DBytes == 0 {
			baseH2D = float64(b.TransferBytes)
		}
		check("transfer_h2d_bytes", baseH2D, float64(c.TransferH2DBytes))
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Experiment != regs[j].Experiment {
			return regs[i].Experiment < regs[j].Experiment
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs, nil
}

// WriteDiff renders a human-readable comparison table of every
// experiment in both snapshots, marking the gated columns ok/FAIL.
func WriteDiff(w io.Writer, base, cur *Snapshot, regs []Regression) {
	bad := make(map[string]bool, len(regs))
	for _, r := range regs {
		bad[r.Experiment+"/"+r.Metric] = true
	}
	curBy := make(map[string]ExperimentSnap, len(cur.Experiments))
	for _, e := range cur.Experiments {
		curBy[e.Name] = e
	}
	fmt.Fprintf(w, "%-18s %-16s %-12s %-12s %-9s %s\n", "experiment", "metric", "base", "current", "delta", "gate")
	rule(w, 78)
	for _, b := range base.Experiments {
		c, ok := curBy[b.Name]
		if !ok {
			fmt.Fprintf(w, "%-18s %-16s %-12s %-12s %-9s %s\n", b.Name, "-", "-", "MISSING", "-", "FAIL")
			continue
		}
		row := func(metric string, bv, cv float64, gated bool) {
			delta := "-"
			if bv > 0 {
				delta = pct(cv/bv - 1)
			}
			status := ""
			if gated {
				status = "ok"
				if bad[b.Name+"/"+metric] {
					status = "FAIL"
				}
			}
			fmt.Fprintf(w, "%-18s %-16s %-12.3f %-12.3f %-9s %s\n", b.Name, metric, bv, cv, delta, status)
		}
		row("modeled_on_ms", b.ModeledOnMs, c.ModeledOnMs, true)
		row("modeled_off_ms", b.ModeledOffMs, c.ModeledOffMs, true)
		row("wall_ms", b.WallMs, c.WallMs, false)
		row("kernel_execs", float64(b.KernelExecs), float64(c.KernelExecs), false)
		row("transfer_bytes", float64(b.TransferBytes), float64(c.TransferBytes), false)
		baseH2D := float64(b.TransferH2DBytes)
		if b.TransferH2DBytes == 0 {
			baseH2D = float64(b.TransferBytes)
		}
		row("transfer_h2d_bytes", baseH2D, float64(c.TransferH2DBytes), true)
		row("transfer_d2h_bytes", float64(b.TransferD2HBytes), float64(c.TransferD2HBytes), false)
		row("kmv_mean_rel_err", b.KMVMeanRelErr, c.KMVMeanRelErr, false)
	}
}
