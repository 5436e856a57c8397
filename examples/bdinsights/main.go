// BD Insights: generate the TPC-DS-derived dataset, run the workload's
// three user classes (returns dashboards, sales reports, data-scientist
// deep dives) with and without the GPU, and print the class-level gains —
// the experiment behind the paper's Figures 5 and 6.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"blugpu/internal/bench"
	"blugpu/internal/des"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

func main() {
	sf := flag.Float64("sf", 0.05, "dataset scale factor")
	flag.Parse()

	fmt.Printf("generating BD Insights dataset at sf=%g...\n", *sf)
	h, err := bench.NewHarness(bench.Config{SF: *sf})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %.1f MB, %d tables (7 facts, 17 dimensions)\n\n",
		float64(h.Data.TotalBytes())/(1<<20), len(h.Data.Tables))

	bd := workload.BDInsights()
	for _, class := range []workload.Class{workload.Simple, workload.Intermediate, workload.Complex} {
		qs := workload.Filter(bd, class)
		if class == workload.Simple {
			qs = qs[:10] // a sample of the 70 dashboards keeps this quick
		}
		runs, err := h.RunSet(qs)
		if err != nil {
			log.Fatal(err)
		}
		var on, off vtime.Duration
		gpuQueries := 0
		for _, r := range runs {
			on += r.GPUOn
			off += r.GPUOff
			if r.GPUUsed {
				gpuQueries++
			}
		}
		gain := (1 - on.Seconds()/off.Seconds()) * 100
		fmt.Printf("%-14s %3d queries: GPU on %8.2fms, off %8.2fms, gain %+5.1f%% (%d used the device)\n",
			class, len(runs), on.Milliseconds(), off.Milliseconds(), gain, gpuQueries)
	}

	fmt.Println("\nper-query detail for the complex class:")
	if err := h.Fig5(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Multi-user mode: the JMeter-style 7/2/1 analyst mix, GPU on vs off.
	fmt.Println("\nmulti-user mode (7 dashboard / 2 report / 1 data-scientist users):")
	// Each distinct statement runs once per path for its resource profile;
	// the streams then replay through the discrete-event simulator sharing
	// the host CPU pool and the device fleet (paper Sections 5.2.2, 5.3).
	profiled := map[string]bench.QueryRun{}
	var onStreams, offStreams [][]des.Profile
	for _, qs := range workload.BDInsightsStreams(workload.DefaultUserMix()) {
		var on, off []des.Profile
		for _, q := range qs {
			r, seen := profiled[q.ID]
			if !seen {
				if r, err = h.RunBoth(q); err != nil {
					log.Fatal(err)
				}
				profiled[q.ID] = r
			}
			on = append(on, r.ProfileOn)
			off = append(off, r.ProfileOff)
		}
		onStreams = append(onStreams, on)
		offStreams = append(offStreams, off)
	}
	cfg := des.Config{CPUCapacity: vtime.PowerS824().EffectiveParallelism(96)}
	off, err := des.Run(cfg, offStreams)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range h.Eng.Devices() {
		cfg.Devices = append(cfg.Devices, des.DeviceSpec{Mem: d.TotalMemory()})
	}
	on, err := des.Run(cfg, onStreams)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  makespan GPU on %8.2fms, off %8.2fms -> %.2fx\n",
		on.Makespan.Seconds()*1e3, off.Makespan.Seconds()*1e3,
		off.Makespan.Seconds()/on.Makespan.Seconds())

	fmt.Println("\nmonitor:")
	h.Eng.Monitor().Report(os.Stdout)
}
