// Package des is a discrete-event simulator for concurrent query
// execution on the paper's testbed: a processor-sharing CPU pool (24
// POWER8 cores, SMT-4) plus GPU devices with finite memory and
// processor-shared compute.
//
// Serial query times come straight from the cost model; the *concurrent*
// results — Table 3's throughput matrix, Figure 8's mixed-workload
// elapsed times, Figure 9's spiky device-memory series — depend on
// resource contention, which this simulator models. Each query is a
// Profile: an alternating sequence of CPU phases (so many core-seconds of
// work, up to a parallelism cap) and GPU phases (so many device-seconds,
// holding so much device memory). Streams issue their queries back to
// back; the simulator advances a virtual clock from completion to
// completion, redistributing rates max-min fairly at every event.
package des

import (
	"errors"
	"fmt"
	"sort"

	"blugpu/internal/vtime"
)

// PhaseKind distinguishes host from device phases.
type PhaseKind int

// Phase kinds.
const (
	// CPUPhase consumes core-seconds from the shared host pool.
	CPUPhase PhaseKind = iota
	// GPUPhase consumes device-seconds on one GPU while holding memory.
	GPUPhase
)

// Phase is one resource demand in a query's execution.
type Phase struct {
	Kind PhaseKind
	// Work is the phase's demand: core-seconds for CPUPhase (work done at
	// rate r consumes r core-seconds per second), device-seconds for
	// GPUPhase.
	Work float64
	// MaxPar caps the rate a CPU phase can absorb (the query's effective
	// parallelism). Ignored for GPU phases, which absorb at most 1.
	MaxPar float64
	// Mem is the device memory (bytes) held for the whole GPU phase.
	Mem int64
}

// Profile is one query's resource demand sequence.
type Profile struct {
	Name   string
	Phases []Phase
}

// SerialSeconds returns the profile's uncontended execution time.
func (p Profile) SerialSeconds() float64 {
	t := 0.0
	for _, ph := range p.Phases {
		switch ph.Kind {
		case CPUPhase:
			par := ph.MaxPar
			if par <= 0 {
				par = 1
			}
			t += ph.Work / par
		case GPUPhase:
			t += ph.Work
		}
	}
	return t
}

// DeviceSpec is a simulated GPU's capacity.
type DeviceSpec struct {
	Mem int64
}

// Config describes the simulated machine.
type Config struct {
	// CPUCapacity is the host pool in core-equivalents (24 cores at
	// SMT scaling 1.9 ≈ 45.6).
	CPUCapacity float64
	// Devices is the GPU fleet; empty means no GPU phases may appear.
	Devices []DeviceSpec
	// SampleEvery adds device-memory samples at this virtual-time
	// interval in addition to event-driven samples (0 disables).
	SampleEvery float64
}

// MemSample is one device-memory utilization point.
type MemSample struct {
	At   float64
	Used int64
}

// QueryResult reports one query's simulated execution.
type QueryResult struct {
	Stream, Index int
	Name          string
	Start, End    float64
}

// Elapsed returns the query's simulated wall time.
func (q QueryResult) Elapsed() vtime.Duration { return vtime.Duration(q.End - q.Start) }

// Result is a completed simulation.
type Result struct {
	// Makespan is the time the last query finished.
	Makespan vtime.Duration
	// Queries holds every query's timing in completion order.
	Queries []QueryResult
	// MemSeries holds per-device memory samples.
	MemSeries [][]MemSample
	// Devices is the fleet the simulation ran on: MemSeries[d] is device
	// d's use of Devices[d].Mem.
	Devices []DeviceSpec
	// GPUWaits counts GPU-phase admissions that had to queue.
	GPUWaits int
}

// Throughput returns queries per hour over the makespan.
func (r Result) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(len(r.Queries)) / r.Makespan.Seconds() * 3600
}

type task struct {
	stream, index int
	profile       Profile
	phase         int
	remaining     float64
	started       float64
	// device the current GPU phase runs on, -1 when none.
	device  int
	waiting bool
	rate    float64
}

// Run simulates the streams to completion. Each stream executes its
// profiles sequentially; all streams start at time zero.
func Run(cfg Config, streams [][]Profile) (*Result, error) {
	if cfg.CPUCapacity <= 0 {
		return nil, errors.New("des: CPUCapacity must be positive")
	}
	free := make([]int64, len(cfg.Devices))
	for i, d := range cfg.Devices {
		free[i] = d.Mem
	}

	res := &Result{MemSeries: make([][]MemSample, len(cfg.Devices)), Devices: cfg.Devices}
	now := 0.0
	lastSample := 0.0

	sample := func() {
		for d := range cfg.Devices {
			used := cfg.Devices[d].Mem - free[d]
			s := res.MemSeries[d]
			if len(s) > 0 && s[len(s)-1].At == now {
				s[len(s)-1].Used = used
				res.MemSeries[d] = s
				continue
			}
			res.MemSeries[d] = append(s, MemSample{At: now, Used: used})
		}
	}

	var active []*task   // tasks with a running phase
	var gpuQueue []*task // tasks waiting for device memory
	var launchNext func(s int) error

	// startPhase enters the task's next non-empty phase; if none remain
	// (the profile ended on zero-work phases) it records the completion
	// and launches the stream's next query.
	startPhase := func(t *task) error {
		for {
			if t.phase >= len(t.profile.Phases) {
				res.Queries = append(res.Queries, QueryResult{
					Stream: t.stream, Index: t.index, Name: t.profile.Name,
					Start: t.started, End: now,
				})
				return launchNext(t.stream)
			}
			ph := t.profile.Phases[t.phase]
			if ph.Work <= 0 {
				t.phase++
				continue
			}
			t.remaining = ph.Work
			if ph.Kind == GPUPhase {
				if len(cfg.Devices) == 0 {
					return fmt.Errorf("des: %s has a GPU phase but no devices configured", t.profile.Name)
				}
				// Admit to the device with the most free memory that fits.
				best := -1
				for d := range cfg.Devices {
					if free[d] >= ph.Mem && (best == -1 || free[d] > free[best]) {
						best = d
					}
				}
				if best == -1 {
					if ph.Mem > maxMem(cfg.Devices) {
						return fmt.Errorf("des: %s needs %d bytes, exceeding every device", t.profile.Name, ph.Mem)
					}
					t.waiting = true
					gpuQueue = append(gpuQueue, t)
					res.GPUWaits++
					return nil
				}
				t.device = best
				free[best] -= ph.Mem
				sample()
			} else {
				t.device = -1
			}
			active = append(active, t)
			return nil
		}
	}

	// Streams launch their first queries in stream order: the order tasks
	// enter active fixes the order rates and completions are summed in,
	// so it must not vary between runs.
	next := make([]int, len(streams))
	launchNext = func(s int) error {
		i := next[s]
		if i >= len(streams[s]) {
			return nil
		}
		next[s] = i + 1
		return startPhase(&task{stream: s, index: i, profile: streams[s][i], device: -1, started: now})
	}
	for s := range streams {
		if err := launchNext(s); err != nil {
			return nil, err
		}
	}
	sample()

	const eps = 1e-12
	for len(active) > 0 {
		// Assign rates: max-min fair on the CPU pool; per-device fair
		// sharing with cap 1 on each GPU.
		assignRates(active, cfg.CPUCapacity, len(cfg.Devices))

		// Time to the next completion.
		dt := -1.0
		for _, t := range active {
			if t.rate <= eps {
				continue
			}
			d := t.remaining / t.rate
			if dt < 0 || d < dt {
				dt = d
			}
		}
		if dt < 0 {
			return nil, errors.New("des: deadlock: active tasks with zero rate")
		}
		// Periodic samples between events.
		if cfg.SampleEvery > 0 {
			for lastSample+cfg.SampleEvery < now+dt {
				lastSample += cfg.SampleEvery
				for d := range cfg.Devices {
					res.MemSeries[d] = append(res.MemSeries[d],
						MemSample{At: lastSample, Used: cfg.Devices[d].Mem - free[d]})
				}
			}
		}
		now += dt

		// Advance everyone; split completions from survivors in place.
		var completed []*task
		keep := active[:0]
		for _, t := range active {
			t.remaining -= t.rate * dt
			if t.remaining > eps {
				keep = append(keep, t)
			} else {
				completed = append(completed, t)
			}
		}
		active = keep

		// Handle completions; startPhase/launchNext append new phases to
		// the (now settled) active slice through the closures.
		var completedGPU bool
		for _, t := range completed {
			ph := t.profile.Phases[t.phase]
			if ph.Kind == GPUPhase {
				free[t.device] += ph.Mem
				t.device = -1
				completedGPU = true
			}
			t.phase++
			if err := startPhase(t); err != nil {
				return nil, err
			}
		}

		// Admit waiting GPU tasks when memory freed.
		if completedGPU && len(gpuQueue) > 0 {
			var remain []*task
			for _, t := range gpuQueue {
				ph := t.profile.Phases[t.phase]
				best := -1
				for d := range cfg.Devices {
					if free[d] >= ph.Mem && (best == -1 || free[d] > free[best]) {
						best = d
					}
				}
				if best == -1 {
					remain = append(remain, t)
					continue
				}
				t.waiting = false
				t.device = best
				free[best] -= ph.Mem
				t.remaining = ph.Work
				active = append(active, t)
			}
			gpuQueue = remain
		}
		sample()
	}
	if len(gpuQueue) > 0 {
		return nil, errors.New("des: tasks stuck waiting for device memory at end of run")
	}
	res.Makespan = vtime.Duration(now)
	sort.Slice(res.Queries, func(a, b int) bool { return res.Queries[a].End < res.Queries[b].End })
	return res, nil
}

func maxMem(devs []DeviceSpec) int64 {
	var m int64
	for _, d := range devs {
		if d.Mem > m {
			m = d.Mem
		}
	}
	return m
}

// assignRates computes each active task's progress rate: GPU tasks share
// their device's unit capacity evenly (cap 1 each); CPU tasks split the
// pool max-min fairly under their parallelism caps.
func assignRates(active []*task, cpuCapacity float64, devices int) {
	// GPU: count residents per device.
	perDev := make([]int, devices)
	for _, t := range active {
		if t.device >= 0 {
			perDev[t.device]++
		}
	}
	// CPU water-filling.
	type capTask struct {
		t   *task
		cap float64
	}
	var cpu []capTask
	for _, t := range active {
		if t.device >= 0 {
			share := 1.0 / float64(perDev[t.device])
			if share > 1 {
				share = 1
			}
			t.rate = share
			continue
		}
		ph := t.profile.Phases[t.phase]
		c := ph.MaxPar
		if c <= 0 {
			c = 1
		}
		cpu = append(cpu, capTask{t: t, cap: c})
	}
	remainingCap := cpuCapacity
	sort.Slice(cpu, func(a, b int) bool { return cpu[a].cap < cpu[b].cap })
	n := len(cpu)
	for i, ct := range cpu {
		share := remainingCap / float64(n-i)
		r := ct.cap
		if r > share {
			r = share
		}
		ct.t.rate = r
		remainingCap -= r
	}
}
