// Command benchmark is the repository's benchmark: a client-observed,
// layer-attributed measurement of bluserve and the engine. See
// README.md in this directory for every workload and metric.
//
// Run from the repository root:
//
//	go run ./benchmark                       all four workloads, every metric
//	go run ./benchmark -quick                the same at sf 0.02 in < 20 s
//	go run ./benchmark -repeat 5 -out a.json five executions; medians and spreads
//	go run ./benchmark -compare a.json b.json  fail when b is worse than a beyond a bound
//	go run ./benchmark -spec                 print BENCHMARK.json
//
// and, as the driver runs it, one workload at a time:
//
//	go run ./benchmark --workload rolap_closed --seed 7 --seconds 10 --trace 0
//
// whose last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const outDir = "benchmark/out"

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all of them)")
		seed         = flag.Int64("seed", 1, "drives statement order and arrival times only")
		seconds      = flag.Float64("seconds", runSeconds, "measuring time per workload, rounded to whole laps of its statement set")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		quick        = flag.Bool("quick", false, "sf 0.02, 1 s windows, one set-up: a smoke run, not a measurement")
		repeat       = flag.Int("repeat", 1, "run the whole set N times (seeds seed..seed+N-1) and print medians, quartiles and spreads")
		out          = flag.String("out", "", "also write every run's metrics to this JSON file (input of -compare)")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 when the second is worse beyond a bound")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		sf           = flag.Float64("sf", fullSF, "dataset scale factor")
		serial       = flag.Bool("serial-child", false, "internal: run as the paper_serial child")
		report       = flag.String("report", "", "internal: the paper_serial child's report file")
	)
	flag.Parse()

	var err error
	switch {
	case *spec:
		_, err = os.Stdout.Write(specJSON())
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two result files")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case *serial:
		err = serialChild(*report, *sf, *seed, *seconds, *trace == 1)
	default:
		opt := runOpts{SF: *sf, Seconds: *seconds, Setups: setupReps}
		if *quick {
			opt.SF, opt.Seconds, opt.Setups = quickSF, 1, 1
		}
		if err = prepare(&opt); err != nil {
			break
		}
		if *workloadName != "" {
			err = runContract(*workloadName, *seed, *trace == 1, opt)
		} else {
			err = runAll(*seed, *repeat, *out, opt)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// prepare checks the machine and the working directory and builds the
// server under test.
func prepare(opt *runOpts) error {
	if runtime.NumCPU() < clients {
		return fmt.Errorf("need nproc ≥ %d (one per client connection, and the server needs the rest); have %d", clients, runtime.NumCPU())
	}
	if _, err := os.Stat("cmd/bluserve"); err != nil {
		return fmt.Errorf("run from the repository root (go run ./benchmark): %v", err)
	}
	if err := os.MkdirAll(filepath.Join(outDir, "bin"), 0o755); err != nil {
		return err
	}
	var err error
	if opt.Self, err = os.Executable(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	opt.Server, err = buildServer(ctx)
	return err
}

// runOne runs one workload once. e2e asks for the several timed
// set-ups; layers asks for the traced run. A workload that outlives
// hardLimit kills the whole process — and with it, through Pdeathsig,
// the program under test.
func runOne(w *workloadDef, seed int64, e2e, layers bool, opt runOpts) (*runResult, error) {
	watchdog := time.AfterFunc(hardLimit*time.Second, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its %d s limit\n", w.Name, hardLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	opt.Seed, opt.Traced = seed, layers
	if !e2e {
		opt.Setups = 1
	}
	refs, err := references(opt.SF, allStatements())
	if err != nil {
		return nil, err
	}
	var res *runResult
	if w.Served {
		res, err = runServed(w, opt, refs)
	} else {
		res, err = runSerial(w, opt)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if layers {
		if err := runTraced(w, opt, refs, res); err != nil {
			return nil, fmt.Errorf("%s traced run: %w", w.Name, err)
		}
	}
	if err := writeSamples(res); err != nil {
		return nil, err
	}
	for _, f := range res.Failures {
		fmt.Printf("FAILED %s %s\n", w.Name, f)
	}
	return res, nil
}

func writeSamples(res *runResult) error {
	data, err := json.Marshal(res.samples)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "samples-"+res.Workload+".json"), data, 0o644)
}

// runContract is the driver's entry: one workload, and as the last
// line of stdout the result object.
func runContract(name string, seed int64, trace bool, opt runOpts) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	printEnv(seed, opt)
	res, err := runOne(w, seed, !trace, trace, opt)
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	printMetrics(res, defs)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range defs {
		v, ok := res.Metrics[m.Name]
		if !ok && !trace {
			return fmt.Errorf("%s produced no %s", name, m.Name)
		}
		final.Metrics[m.Name] = value{v, m.Unit} // an absent layer metric reads 0
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	// Failed checks are reported in the object (correct, failed), not by
	// the exit code: the run itself completed.
	fmt.Println(string(line))
	return nil
}

// resultFile is what -out writes and -compare reads: the numbers, and
// the catalogue they were measured under (names, units, bounds, what
// each layer metric is expected to move, why each workload exists).
type resultFile struct {
	Env       map[string]string `json:"env"`
	Workloads []workloadDef     `json:"workloads"`
	EndToEnd  []metricDef       `json:"end_to_end"`
	PerLayer  []metricDef       `json:"per_layer"`
	Runs      []*runResult      `json:"runs"`
}

// runAll is the human entry: every workload, end-to-end and per-layer
// metrics from the same window, repeated -repeat times.
func runAll(seed int64, repeat int, out string, opt runOpts) error {
	file := resultFile{Env: printEnv(seed, opt), Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer}
	failed := 0
	for i := 0; i < repeat; i++ {
		for j := range workloads {
			w := &workloads[j]
			gating := ""
			if !w.Gating {
				gating = "  (not gating)"
			}
			fmt.Printf("\n== %s  seed %d%s\n   %s\n", w.Name, seed+int64(i), gating, w.Why)
			start := time.Now()
			// Only gating workloads pay for three set-ups: a median
			// setup_s matters where a bound is held against it.
			res, err := runOne(w, seed+int64(i), w.Gating, true, opt)
			if err != nil {
				return err
			}
			fmt.Printf("  attempted %d  failed %d  (%.1f s)\n", res.Attempted, res.Failed, time.Since(start).Seconds())
			printMetrics(res, endToEnd)
			printMetrics(res, perLayer)
			failed += res.Failed
			file.Runs = append(file.Runs, res)
		}
	}
	if repeat > 1 {
		printSpreads(file.Runs)
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed their check", failed)
	}
	return nil
}

// printEnv records what the numbers depend on besides the code.
func printEnv(seed int64, opt runOpts) map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit(),
		"seed":       fmt.Sprint(seed),
		"sf":         fmt.Sprint(opt.SF),
		"seconds":    fmt.Sprint(opt.Seconds),
	}
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%s", k, env[k])
	}
	fmt.Println("benchmark:" + sb.String())
	return env
}

// commit is the checkout's commit, or "unknown" outside a git
// repository (the driver's checkouts are plain directories).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printMetrics(res *runResult, defs []metricDef) {
	var absent []string
	for _, m := range defs {
		v, ok := res.Metrics[m.Name]
		if !ok {
			absent = append(absent, m.Name)
			continue
		}
		n := ""
		if c, ok := res.N[m.Name]; ok {
			n = fmt.Sprintf("n=%d", c)
		}
		fmt.Printf("  %-34s %14.4f %-6s %-8s %-5s %s\n", m.Name, v, m.Unit, n, m.Time, m.Better)
	}
	if len(absent) > 0 {
		fmt.Printf("  absent on %s: %s\n", res.Workload, strings.Join(absent, " "))
	}
}
