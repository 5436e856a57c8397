// Command fusecheck is the data-path fusion smoke: it boots two
// harnesses over the same generated dataset — one with the fused device
// pipeline, one with it disabled — runs the full BD Insights and Cognos
// ROLAP query sets through both, and demands
//
//   - identical result tables (fusion is a pure transfer optimization;
//     any drift is a correctness bug) under bench.DiffResults, the rule
//     the differential tests use: integers, strings and NULLs exact,
//     floats to 1e-9 relative, because float SUMs accumulate through
//     racing device atomics and their last bits depend on thread order
//     whichever path runs, and
//   - a real H2D byte reduction with at least one fused chain executed
//     (otherwise the fused path silently stopped engaging).
//
// Exit status: 0 when both hold, 1 on a mismatch or a missing win, 2 on
// operational errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"blugpu/internal/bench"
	"blugpu/internal/workload"
)

func main() {
	sf := flag.Float64("sf", 0.02, "dataset scale factor")
	seed := flag.Uint64("seed", 20160626, "generator seed")
	devices := flag.Int("devices", 2, "number of simulated GPUs")
	degree := flag.Int("degree", 24, "intra-query parallelism")
	flag.Parse()

	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fusecheck: "+format+"\n", args...)
		os.Exit(code)
	}

	mk := func(noFusion bool) *bench.Harness {
		h, err := bench.NewHarness(bench.Config{
			SF: *sf, Seed: *seed, Devices: *devices, Degree: *degree,
			NoFusion: noFusion,
		})
		if err != nil {
			fail(2, "harness (fusion=%v): %v", !noFusion, err)
		}
		return h
	}
	fmt.Printf("fusecheck: sf=%g seed=%d devices=%d degree=%d\n", *sf, *seed, *devices, *degree)
	fused, staged := mk(false), mk(true)

	qs := append(workload.BDInsights(), workload.CognosROLAP()...)
	mismatches := 0
	for _, q := range qs {
		want, err := staged.Eng.QueryNamed(q.ID, q.SQL)
		if err != nil {
			fail(2, "%s (fusion off): %v", q.ID, err)
		}
		got, err := fused.Eng.QueryNamed(q.ID, q.SQL)
		if err != nil {
			fail(2, "%s (fusion on): %v", q.ID, err)
		}
		if msg := bench.DiffResults(want, got); msg != "" {
			mismatches++
			fmt.Fprintf(os.Stderr, "fusecheck: %s: fused result differs from staged: %s\n", q.ID, msg)
		}
	}
	if mismatches > 0 {
		fail(1, "%d of %d queries differ between fused and staged runs", mismatches, len(qs))
	}
	fmt.Printf("fusecheck: %d queries identical across fused and staged runs\n", len(qs))

	chains, saved, uploaded := fused.Eng.Monitor().FusedStats()
	h2dOn, _ := fused.Eng.Monitor().Transfers()
	h2dOff, _ := staged.Eng.Monitor().Transfers()
	fmt.Printf("fusecheck: fused chains=%d saved=%d B cache fills=%d B\n", chains, saved, uploaded)
	fmt.Printf("fusecheck: H2D bytes %d (staged) -> %d (fused), %+.1f%%\n",
		h2dOff.Bytes, h2dOn.Bytes, 100*(float64(h2dOn.Bytes)/float64(h2dOff.Bytes)-1))
	if chains == 0 {
		fail(1, "no fused chains executed — the fused path never engaged")
	}
	if h2dOn.Bytes >= h2dOff.Bytes {
		fail(1, "fusion did not reduce H2D traffic")
	}
	fmt.Println("fusecheck: ok")
}
