// Command benchdiff is the modeled-time regression gate: it runs the
// benchdiff experiment suite, writes the result as a snapshot, and
// compares the deterministic columns (modeled time, H2D bytes) against a
// committed baseline. Wall-clock latency and throughput are not its
// business — benchmark/ measures those (see benchmark/README.md).
//
// Usage:
//
//	benchdiff [-sf 0.02] [-seed N] [-devices 2] [-degree 24]
//	          [-baseline BENCH_0.json] [-out FILE] [-threshold 0.05]
//	          [-inflate 1.0]
//
// Exit status: 0 when every gated metric is within threshold, 1 when a
// regression is detected, 2 on operational errors. The default scale
// (sf=0.02) is the smallest at which the optimizer routes work to the
// GPU, keeping the gate meaningful and CI-fast at once. -inflate
// multiplies the fresh snapshot's gated columns and exists to prove the
// gate trips (`benchdiff -inflate 1.2` must fail a 5% threshold).
//
// The fresh snapshot goes to -out, or to a temporary file when -out is
// not given; a baseline is recorded only by naming it
// (`benchdiff -out BENCH_0.json`).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"time"

	"blugpu/internal/bench"
)

func main() {
	sf := flag.Float64("sf", 0.02, "dataset scale factor")
	seed := flag.Uint64("seed", 20160626, "generator seed")
	devices := flag.Int("devices", 2, "number of simulated GPUs")
	degree := flag.Int("degree", 24, "intra-query parallelism")
	baseline := flag.String("baseline", "BENCH_0.json", "baseline snapshot to compare against")
	out := flag.String("out", "", "where to write the fresh snapshot (default: a temporary file)")
	threshold := flag.Float64("threshold", 0.05, "allowed fractional growth of modeled time before the gate fails")
	inflate := flag.Float64("inflate", 1.0, "multiply the fresh snapshot's gated columns (gate self-test)")
	flag.Parse()

	fail := func(code int, err error) {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(code)
	}

	baselineExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "baseline" {
			baselineExplicit = true
		}
	})
	// Read the baseline before the suite writes anything, so -out may
	// name the baseline file itself. Only the default path may be absent
	// (a first run, which records instead of comparing; base stays nil).
	base, err := bench.ReadSnapshot(*baseline)
	if err != nil {
		if baselineExplicit || !errors.Is(err, fs.ErrNotExist) {
			fail(2, err)
		}
	}

	fmt.Printf("benchdiff: running suite (sf=%g seed=%d devices=%d degree=%d)...\n", *sf, *seed, *devices, *degree)
	start := time.Now()
	cur, err := bench.TakeSnapshot(bench.Config{SF: *sf, Seed: *seed, Devices: *devices, Degree: *degree})
	if err != nil {
		fail(2, err)
	}
	fmt.Printf("benchdiff: suite done in %.1fs\n", time.Since(start).Seconds())

	if *inflate != 1.0 {
		for i := range cur.Experiments {
			cur.Experiments[i].ModeledOnMs *= *inflate
			cur.Experiments[i].ModeledOffMs *= *inflate
			// H2D bytes gate in the same direction: inflating must trip
			// them too.
			cur.Experiments[i].TransferH2DBytes = int64(float64(cur.Experiments[i].TransferH2DBytes) * *inflate)
		}
		fmt.Printf("benchdiff: modeled and transfer columns inflated by %.2fx (gate self-test)\n", *inflate)
	}

	path := *out
	if path == "" {
		f, err := os.CreateTemp("", "benchdiff-*.json")
		if err != nil {
			fail(2, err)
		}
		f.Close() // WriteFile reopens it by name
		path = f.Name()
	}
	if err := cur.WriteFile(path); err != nil {
		fail(2, err)
	}
	fmt.Printf("benchdiff: snapshot written to %s\n", path)

	if base == nil {
		fmt.Printf("benchdiff: no baseline at %s; record one with -out %s\n", *baseline, *baseline)
		return
	}
	regs, err := bench.Compare(base, cur, *threshold)
	if err != nil {
		fail(2, err)
	}
	fmt.Printf("\ncomparison against %s (gate: modeled time within %+.0f%%):\n", *baseline, *threshold*100)
	bench.WriteDiff(os.Stdout, base, cur, regs)
	if len(regs) > 0 {
		fmt.Printf("\nbenchdiff: %d regression(s):\n", len(regs))
		for _, r := range regs {
			fmt.Printf("  %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Println("\nbenchdiff: no regressions")
}
