package sched

// Robustness coverage: the Devices() copy, reservation-race retry across
// the fleet, what Run owes a panicking or failing fn, the circuit
// breaker's trip/probe/recover cycle, and reservation-leak stress under
// -race.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"blugpu/internal/fault"
	"blugpu/internal/gpu"
	"blugpu/internal/vtime"
)

// recordSink is a test Sink.
type recordSink struct {
	mu       sync.Mutex
	retries  []string
	faulted  int
	trips    []int
	recovers []int
}

func (r *recordSink) RecordGPURetry(op string, faulted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retries = append(r.retries, op)
	if faulted {
		r.faulted++
	}
}

func (r *recordSink) RecordBreaker(device int, tripped bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if tripped {
		r.trips = append(r.trips, device)
	} else {
		r.recovers = append(r.recovers, device)
	}
}

func faultyFleet(cfg fault.Config) (*Scheduler, *fault.Injector, []*gpu.Device) {
	inj := fault.New(cfg)
	d0 := gpu.NewDevice(0, vtime.TeslaK40(), gpu.WithFaults(inj))
	d1 := gpu.NewDevice(1, vtime.TeslaK40(), gpu.WithFaults(inj))
	s, err := New(d0, d1)
	if err != nil {
		panic(err)
	}
	return s, inj, []*gpu.Device{d0, d1}
}

func fleetFree(devs []*gpu.Device) (free, total int64) {
	for _, d := range devs {
		free += d.FreeMemory()
		total += d.TotalMemory()
	}
	return free, total
}

func TestDevicesReturnsCopy(t *testing.T) {
	s, _ := twoK40s()
	got := s.Devices()
	got[0], got[1] = got[1], got[0]
	got2 := s.Devices()
	if got2[0].ID() != 0 || got2[1].ID() != 1 {
		t.Error("mutating the Devices() result changed the scheduler's fleet")
	}
	got2 = got2[:1]
	if len(s.Devices()) != 2 {
		t.Error("truncating the Devices() result changed the fleet")
	}
}

// A reservation that fails on the best-ranked device must move on to
// the remaining eligible devices instead of giving up.
func TestRunRetriesNextDevice(t *testing.T) {
	s, inj, _ := faultyFleet(fault.Config{})
	sink := &recordSink{}
	s.SetSink(sink)
	inj.KillDevice(0) // device 0 wins the idle tie-break, then its Reserve fails
	dev, err := run(s, 1<<30, noop)
	if err != nil {
		t.Fatalf("Run gave up instead of retrying device 1: %v", err)
	}
	if dev.ID() != 1 {
		t.Errorf("placed on device %d, want 1", dev.ID())
	}
	if len(sink.retries) != 1 || sink.retries[0] != "place" || sink.faulted != 1 {
		t.Errorf("retry accounting: ops=%v faulted=%d, want one faulted place", sink.retries, sink.faulted)
	}
}

// When every candidate's reservation fails, the terminal error wraps
// both ErrNoDevice and the last reservation failure.
func TestRunTerminalErrorClassifiable(t *testing.T) {
	s, inj, _ := faultyFleet(fault.Config{})
	inj.KillDevice(0)
	inj.KillDevice(1)
	dev, err := run(s, 1<<30, noop)
	if dev != nil || !errors.Is(err, ErrNoDevice) {
		t.Fatalf("want no device and ErrNoDevice, got %v, %v", dev, err)
	}
	if !errors.Is(err, gpu.ErrInjected) || !errors.Is(err, gpu.ErrDeviceLost) {
		t.Errorf("terminal error should carry the fault cause: %v", err)
	}
}

// A panic inside fn must not keep device memory, and says nothing about
// the device: the breaker stays as it was.
func TestRunReleasesOnPanic(t *testing.T) {
	s, devs := twoK40s()
	s.ReportFailure(devs[0]) // a count a wrongly reported success would reset
	before := s.Health()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the panic fn raised", r)
			}
		}()
		run(s, 1<<30, func(res *gpu.Reservation) error {
			if _, err := res.AllocWords(1 << 20); err != nil {
				t.Error(err)
			}
			panic("boom")
		})
		t.Error("Run swallowed the panic")
	}()
	for _, d := range devs {
		if d.FreeMemory() != d.TotalMemory() || d.Outstanding() != 0 {
			t.Errorf("device %d after panic: %d of %d bytes free, %d outstanding",
				d.ID(), d.FreeMemory(), d.TotalMemory(), d.Outstanding())
		}
	}
	if after := s.Health(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("panic moved the breaker: %+v -> %+v", before, after)
	}
}

// What fn returns decides what the device's breaker hears.
func TestRunBreakerRule(t *testing.T) {
	decline := errors.New("caller declined")
	cases := []struct {
		name      string
		demand    int64
		fnErr     error
		wantFails int // consecutive failures afterwards, starting from 1
	}{
		{"nil is a success", 1 << 30, nil, 0},
		{"injected fault is a failure", 1 << 30, fmt.Errorf("kernel: %w", gpu.ErrInjected), 2},
		{"plain error is neither", 1 << 30, gpu.ErrOutOfMemory, 1},
		{"sentinel decline is neither", 1 << 30, decline, 1},
		{"not placed is neither", 64 << 30, nil, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := gpu.NewDevice(0, vtime.TeslaK40())
			s, err := New(d)
			if err != nil {
				t.Fatal(err)
			}
			s.ReportFailure(d)
			ran := false
			dev, err := run(s, c.demand, func(*gpu.Reservation) error {
				ran = true
				return c.fnErr
			})
			if placed := c.demand <= d.TotalMemory(); ran != placed || (dev != nil) != placed {
				t.Fatalf("placed=%v but fn ran=%v, dev=%v", placed, ran, dev)
			}
			if ran && err != c.fnErr {
				t.Errorf("Run returned %v, want fn's %v", err, c.fnErr)
			}
			if got := s.Health()[0].ConsecutiveFails; got != c.wantFails {
				t.Errorf("consecutive failures = %d, want %d", got, c.wantFails)
			}
			if d.FreeMemory() != d.TotalMemory() {
				t.Error("reservation outlived Run")
			}
		})
	}
}

func TestCircuitBreakerTripProbeRecover(t *testing.T) {
	s, inj, devs := faultyFleet(fault.Config{})
	sink := &recordSink{}
	s.SetSink(sink)
	s.SetBreaker(3, 100*vtime.Millisecond)
	inj.KillDevice(0)
	place := func() int {
		t.Helper()
		dev, err := run(s, 1<<30, noop)
		if err != nil {
			t.Fatal(err)
		}
		return dev.ID()
	}

	// Three consecutive failed placements trip device 0's breaker.
	for i := 0; i < 3; i++ {
		place()
	}
	h := s.Health()
	if !h[0].Quarantined || h[0].Trips != 1 {
		t.Fatalf("device 0 not quarantined after 3 failures: %+v", h[0])
	}
	if len(sink.trips) != 1 || sink.trips[0] != 0 {
		t.Errorf("sink trips = %v, want [0]", sink.trips)
	}

	// While quarantined, device 0 is never touched: its fault counter
	// stays frozen across many placements.
	before := inj.Counts().Total()
	for i := 0; i < 5; i++ {
		if place() != 1 {
			t.Errorf("placement %d on quarantined device", i)
		}
	}
	if got := inj.Counts().Total(); got != before {
		t.Errorf("quarantined device still probed: faults %d -> %d", before, got)
	}

	// Probation expiry re-admits half-open: one probe, and since the
	// device is still dead, one more failure re-trips immediately.
	s.Advance(200 * vtime.Millisecond)
	place()
	if got := inj.Counts().Total(); got != before+1 {
		t.Errorf("half-open probe count: faults %d -> %d, want one probe", before, got)
	}
	if h := s.Health(); !h[0].Quarantined || h[0].Trips != 2 {
		t.Errorf("failed probe should re-trip immediately: %+v", h[0])
	}

	// Revive the device; after probation the next probe succeeds and the
	// breaker records a recovery.
	inj.ReviveDevice(0)
	s.Advance(200 * vtime.Millisecond)
	if id := place(); id != 0 {
		t.Errorf("revived device not re-admitted: placed on %d", id)
	}
	h = s.Health()
	if h[0].Quarantined || h[0].Recoveries != 1 || h[0].ConsecutiveFails != 0 {
		t.Errorf("recovery not recorded: %+v", h[0])
	}
	if len(sink.recovers) != 1 || sink.recovers[0] != 0 {
		t.Errorf("sink recoveries = %v, want [0]", sink.recovers)
	}
	if free, total := fleetFree(devs); free != total {
		t.Errorf("breaker cycle leaked %d bytes", total-free)
	}
}

// Concurrent placement stress (run under -race): after all workers
// drain, the fleet's free memory must equal its capacity — no
// reservation leaks, with and without injected faults.
func TestConcurrentPlaceReleaseNoLeak(t *testing.T) {
	s, devs := twoK40s()
	var wg sync.WaitGroup
	const workers = 16
	const iters = 40
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				demand := int64(1+rng.Intn(4)) << 30
				err := runWhenFree(s, demand, func(res *gpu.Reservation) error {
					if rng.Intn(4) == 0 {
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
					if rng.Intn(8) == 0 {
						res.Release() // an early release must stay safe
					}
					return nil
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	free, total := fleetFree(devs)
	if free != total {
		t.Errorf("stress leaked %d bytes", total-free)
	}
	for _, snap := range s.Snapshot() {
		if snap.Outstanding != 0 {
			t.Errorf("device %d still shows outstanding jobs", snap.Device)
		}
	}
}

// Same stress with injected reservation faults: Run may place nothing,
// but whatever it places must release cleanly and the accounting must
// balance.
func TestConcurrentRunFaultsNoLeak(t *testing.T) {
	s, _, devs := faultyFleet(fault.Config{Seed: 11, Reserve: 0.3})
	var wg sync.WaitGroup
	const workers = 16
	const iters = 60
	var placed, failed int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < iters; i++ {
				demand := int64(1+rng.Intn(4)) << 30
				dev, _ := run(s, demand, noop)
				mu.Lock()
				if dev == nil {
					failed++
				} else {
					placed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	free, total := fleetFree(devs)
	if free != total {
		t.Errorf("faulted stress leaked %d bytes", total-free)
	}
	if placed == 0 {
		t.Error("every Run failed to place; stress exercised nothing")
	}
	t.Logf("placed=%d failed=%d", placed, failed)
}
