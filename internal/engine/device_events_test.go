package engine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"blugpu/internal/fault"
	"blugpu/internal/gpu"
	"blugpu/internal/optimizer"
	"blugpu/internal/sched"
	"blugpu/internal/workload"
)

// eventTap sits in front of the engine's device sink and keeps every
// event, so a test can read the raw stream the monitor and tracer fold.
type eventTap struct {
	next   gpu.EventSink
	mu     sync.Mutex
	events []gpu.Event
}

func (t *eventTap) RecordGPUEvent(ev gpu.Event) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
	t.next.RecordGPUEvent(ev)
}

// take returns the events since the last take, one line each — device,
// kind, name, bytes, modeled-time bits — sorted, so the multiset does not
// depend on which goroutine reported first.
func (t *eventTap) take() []string {
	t.mu.Lock()
	evs := t.events
	t.events = nil
	t.mu.Unlock()
	lines := make([]string, len(evs))
	for i, ev := range evs {
		lines[i] = fmt.Sprintf("%d %s %q %d %016x", ev.Device, ev.Kind, ev.Name, ev.Bytes, math.Float64bits(float64(ev.Modeled)))
	}
	slices.Sort(lines)
	return lines
}

// tapDevices rebuilds e's fleet as New wires it, with every device event
// passing through tap on its way to the engine's own sink.
func tapDevices(t *testing.T, e *Engine) *eventTap {
	t.Helper()
	tap := &eventTap{next: engineSink{e}}
	for i := range e.devices {
		e.devices[i] = gpu.NewDevice(i, e.cfg.DeviceSpec,
			gpu.WithSink(tap), gpu.WithModel(e.model), gpu.WithFaults(e.cfg.Faults))
	}
	s, err := sched.New(e.devices...)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSink(e.mon)
	e.sched = s
	return tap
}

// deviceEventsDigest runs a cold lap and then a warm lap of all 146
// workload statements on a two-device engine built from cfg and renders,
// per lap and statement, the event count and the SHA-256 of the sorted
// event multiset; then the pinned segment's and (fused) the column cache's
// counters; and, with a fault injector, the faults it fired and the
// monitor's retries and fallbacks by operation.
func deviceEventsDigest(t *testing.T, ds *workload.Dataset, cfg Config) []byte {
	t.Helper()
	cfg.Devices = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tap := tapDevices(t, e)
	if err := ds.RegisterAll(e); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "degree %d nofusion %t", cfg.Degree, cfg.NoFusion)
	if cfg.Faults != nil {
		fmt.Fprint(&out, " faults")
	}
	fmt.Fprintln(&out)
	for _, lap := range []string{"cold", "warm"} {
		for _, q := range workloadQueries() {
			if _, err := e.QueryNamed(q.ID, q.SQL); err != nil {
				t.Fatalf("%s %s: %v", lap, q.ID, err)
			}
			lines := tap.take()
			h := sha256.New()
			for _, l := range lines {
				fmt.Fprintln(h, l)
			}
			fmt.Fprintf(&out, "%s %s %d %x\n", lap, q.ID, len(lines), h.Sum(nil))
		}
	}
	fmt.Fprintf(&out, "hostmem %+v\n", e.registry.Stats())
	if e.fcache != nil {
		fmt.Fprintf(&out, "fusion %+v\n", e.fcache.Stats())
	}
	if cfg.Faults != nil {
		fmt.Fprintf(&out, "injected %+v\n", cfg.Faults.Counts())
		for _, r := range e.mon.Retries() {
			fmt.Fprintf(&out, "retry %+v\n", r)
		}
		for _, fb := range e.mon.Fallbacks() {
			fmt.Fprintf(&out, "fallback %+v\n", fb)
		}
	}
	return out.Bytes()
}

// TestDeviceEventsGolden locks the simulated memories' accounting: every
// reservation, transfer, kernel and fault event of every workload
// statement (device, kind, name, bytes, modeled time to the bit), plus the
// pinned segment's watermark and the column cache's counters, fused and
// staged (NoFusion). It was recorded before the device buffers, the column
// images and the pinned segment stopped holding copies, and holds the
// accounting-only memories to the filled ones. Answers, and so the host
// float sums that later feed a device sort, depend on the degree alone, so
// the digest is the same on any machine.
//
// The fault section runs the same laps with a 10 % fault rate at every
// device site, T1=1 and a 256-row sort threshold, so every grouped query
// and most sorts go to the device: it pins which operations fault, and
// how each fault is retried or falls back, under fusion and without.
func TestDeviceEventsGolden(t *testing.T) {
	ds := workload.Generate(0.02, 20160626)
	var got []byte
	for _, degree := range []int{1, 8} {
		for _, noFusion := range []bool{false, true} {
			got = append(got, deviceEventsDigest(t, ds, Config{Degree: degree, NoFusion: noFusion})...)
		}
	}
	th := optimizer.DefaultThresholds()
	th.T1Rows = 1
	for _, degree := range []int{1, 8} {
		for _, noFusion := range []bool{false, true} {
			got = append(got, deviceEventsDigest(t, ds, Config{
				Degree: degree, NoFusion: noFusion, Thresholds: th, GPUSortThreshold: 256,
				Faults: fault.New(fault.Config{Seed: 20160626, Reserve: 0.1, H2D: 0.1, D2H: 0.1, Kernel: 0.1}),
			})...)
		}
	}
	golden(t, "device_events.golden", got)
}
