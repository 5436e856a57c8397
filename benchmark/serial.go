package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"blugpu/internal/engine"
	"blugpu/internal/metrics"
	"blugpu/internal/workload"
)

// paper_serial runs the engine in-process with one client and no
// serving layer. To give it the same fresh-process set-up, CPU and RSS
// measurements the served workloads get, the engine lives in a child of
// this very binary (-serial-child); the parent only times the set-up
// and collects the child's report.

// serialReport is what the child writes for the parent.
type serialReport struct {
	Cold   []sample `json:"cold"`
	Warm   []sample `json:"warm"`
	Off    []sample `json:"off"`
	CPUSec float64  `json:"cpu_s"` // child user+sys over the warm laps
	PeakMB float64  `json:"peak_mb"`
	MeanMB float64  `json:"mean_mb"` // mean resident set over the warm laps
	// Engine-registry expositions bracketing the warm laps.
	Before string `json:"before"`
	After  string `json:"after"`
}

var readyRE = regexp.MustCompile(`^serial-child: ready`)

func runSerial(w *workloadDef, opt runOpts) (*runResult, error) {
	res := newResult(w, opt.Seed)
	report := filepath.Join(outDir, "serial-report.json")
	os.Remove(report) // never read a previous run's
	args := []string{"-serial-child", "-sf", fmt.Sprint(opt.SF)}

	// Every set-up is a fresh child; all but the last exit once ready.
	var setups []float64
	var c *child
	for i := 0; i < opt.Setups; i++ {
		if i == opt.Setups-1 {
			args = append(args, "-report", report,
				"-seed", fmt.Sprint(opt.Seed), "-seconds", fmt.Sprint(opt.Seconds))
			if opt.Traced {
				args = append(args, "-trace", "1")
			}
		}
		var err error
		if c, err = startChild(opt.Self, args...); err != nil {
			return nil, err
		}
		if _, err := c.waitLine(readyRE, 60*time.Second); err != nil {
			c.kill()
			return nil, err
		}
		setups = append(setups, time.Since(c.start).Seconds())
		c.drain()
		if err := c.wait(hardLimit * time.Second); err != nil {
			return nil, err
		}
	}
	data, err := os.ReadFile(report)
	if err != nil {
		return nil, fmt.Errorf("paper_serial child left no report: %v; stderr: %s", err, c.stderr)
	}
	var rep serialReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	res.setMedian("setup_s", setups)

	res.samples = rep.Warm
	clientMetrics(res, rep.Warm)
	if ok := float64(res.Attempted - res.Failed); ok > 0 {
		res.set("cpu_ms_per_query", rep.CPUSec*1000/ok)
	}
	res.set("rss_mean_mb", rep.MeanMB)
	res.set("runtime.rss_peak_mb", rep.PeakMB)
	before, after := parseExposition(rep.Before), parseExposition(rep.After)
	scrapeMetrics(res, before, after)

	// The paper's arms. Cold and GPU-off failures count as failures of
	// the run even though only the warm laps are timed.
	for _, pass := range [][]sample{rep.Cold, rep.Off} {
		for _, s := range pass {
			res.Attempted++
			if !s.OK {
				res.Failed++
				res.Failures = append(res.Failures, s.Stmt+": "+s.Err)
			}
		}
	}
	modeled := func(ss []sample) (sum float64) {
		for _, s := range ss {
			sum += s.ModeledMs
		}
		return sum
	}
	res.set("engine.modeled_cold_ms_per_query", modeled(rep.Cold)/float64(len(rep.Cold)))
	// The engine is fresh, so everything moved before the warm laps
	// was moved by the cold pass.
	if v, ok := before.sum("blu_transfer_bytes_total", `direction="h2d"`); ok {
		res.set("gpu.h2d_bytes_cold", v)
	}
	if v, ok := delta(before, after, "blu_transfer_bytes_total", `direction="h2d"`); ok {
		res.set("gpu.h2d_bytes_warm", v)
	}
	var used, wall float64
	for _, s := range rep.Warm {
		if s.GPUUsed {
			used++
		}
		wall += s.LatencyMs
	}
	res.set("engine.gpu_used_ratio", used/float64(len(rep.Warm)))
	if m := modeled(rep.Warm); m > 0 {
		res.set("engine.sim_wall_per_modeled", wall/m)
	}
	if len(rep.Off) > 0 {
		off := modeled(rep.Off) / float64(len(rep.Off))
		res.set("engine.modeled_off_ms_per_query", off)
		// Σ off / Σ on over one lap each — the paper's headline ratio.
		res.set("engine.modeled_gain", off/res.Metrics["modeled_ms_per_query"])
	}
	return res, nil
}

// serialChild is the -serial-child entry point: build the engine, say
// ready, run the passes, write the report, exit.
func serialChild(reportPath string, sf float64, seed int64, seconds float64, traced bool) error {
	stmts := findWorkload("paper_serial").Stmts()
	eng, err := engine.New(engine.Config{Devices: devices, Degree: degree})
	if err != nil {
		return err
	}
	if err := workload.Generate(sf, dataSeed).RegisterAll(eng); err != nil {
		return err
	}
	fmt.Println("serial-child: ready")
	if reportPath == "" { // set-up timing only
		return nil
	}
	refs, err := references(sf, allStatements())
	if err != nil {
		return err
	}

	expo := func() string {
		var sb strings.Builder
		metrics.Collect(metrics.SourcesFromEngine(eng)()).WriteText(&sb)
		return sb.String()
	}
	// pass runs reqs back to back. Results are kept and checked by the
	// returned function, outside the timed and CPU-metered loop.
	pass := func(reqs []request) ([]sample, func()) {
		out := make([]sample, len(reqs))
		results := make([]*engine.Result, len(reqs))
		t0 := time.Now()
		for i, r := range reqs {
			q := stmts[r.Stmt]
			s := sample{Stmt: q.ID, Class: string(q.Class)}
			start := time.Since(t0)
			res, err := eng.QueryNamed(q.ID, q.SQL)
			end := time.Since(t0)
			s.StartMs, s.EndMs = ms(start), ms(end)
			s.LatencyMs = s.EndMs - s.StartMs
			if err != nil {
				s.Err = err.Error()
			}
			out[i], results[i] = s, res
		}
		return out, func() {
			for i := range out {
				s, res := &out[i], results[i]
				if res == nil {
					continue
				}
				s.ModeledMs, s.GPUUsed, s.WallMs = res.Modeled.Milliseconds(), res.GPUUsed, ms(res.Wall.Exec)
				got, err := tableFromResult(res)
				if err == nil {
					err = compareTables(refs[s.Stmt], got)
				}
				if err != nil {
					s.Err = "result mismatch: " + err.Error()
				}
				s.OK = err == nil
			}
		}
	}

	var rep serialReport
	// Cold: the fusion column cache is empty, every fill is paid here.
	coldStart := time.Now()
	var check func()
	rep.Cold, check = pass(schedule(seed+1<<32, len(stmts), 1, 0))
	lap := time.Since(coldStart)
	check()
	rep.Before = expo()

	cpu0, err := procCPU(0)
	if err != nil {
		return err
	}
	rss := startRSSSampler(0)
	rep.Warm, check = pass(schedule(seed, len(stmts), lapsFor(seconds, lap), 0))
	rep.MeanMB = rss.mean()
	cpu1, err := procCPU(0)
	if err != nil {
		return err
	}
	rep.CPUSec = cpu1 - cpu0
	if rep.PeakMB, err = procPeakMB(0); err != nil {
		return err
	}
	rep.After = expo()
	check()

	if traced {
		// The paper's CPU-only arm: same engine, same degree, GPU off.
		eng.SetGPUEnabled(false)
		rep.Off, check = pass(schedule(seed, len(stmts), 1, 0))
		check()
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(reportPath, data, 0o644)
}

func allStatements() []workload.Query {
	return append(workload.BDInsights(), workload.CognosROLAP()...)
}
