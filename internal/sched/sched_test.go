package sched

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"blugpu/internal/gpu"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

func twoK40s() (*Scheduler, []*gpu.Device) {
	d0 := gpu.NewDevice(0, vtime.TeslaK40())
	d1 := gpu.NewDevice(1, vtime.TeslaK40())
	s, err := New(d0, d1)
	if err != nil {
		panic(err)
	}
	return s, []*gpu.Device{d0, d1}
}

// run is Run untraced over the whole fleet.
func run(s *Scheduler, demand int64, fn func(*gpu.Reservation) error) (*gpu.Device, error) {
	return s.Run(trace.Context{}, 0, demand, nil, fn)
}

func noop(*gpu.Reservation) error { return nil }

// runWhenFree retries a busy fleet until the task is placed: Run never
// blocks, so a caller that wants to wait (Section 2.1.1's other option)
// polls.
func runWhenFree(s *Scheduler, demand int64, fn func(*gpu.Reservation) error) error {
	for {
		dev, err := run(s, demand, fn)
		if dev != nil || !errors.Is(err, ErrNoDevice) {
			return err
		}
		runtime.Gosched()
	}
}

func TestNewRequiresDevices(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty fleet should be rejected")
	}
}

func TestRunPicksLeastLoaded(t *testing.T) {
	s, devs := twoK40s()
	// Load device 0 with a big reservation so device 1 has more free memory.
	r, err := devs[0].Reserve(8 << 30)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	dev, err := run(s, 6<<30, func(res *gpu.Reservation) error {
		if res.Size() != 6<<30 {
			t.Errorf("reservation carries %d bytes, want the whole demand", res.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if dev.ID() != 1 {
		t.Errorf("placed on device %d, want 1 (more free memory)", dev.ID())
	}
}

func TestRunErrNoDevice(t *testing.T) {
	s, devs := twoK40s()
	r0, _ := devs[0].Reserve(11 << 30)
	r1, _ := devs[1].Reserve(11 << 30)
	defer r0.Release()
	defer r1.Release()
	dev, err := run(s, 4<<30, func(*gpu.Reservation) error {
		t.Error("fn ran although nothing was placed")
		return nil
	})
	if dev != nil || !errors.Is(err, ErrNoDevice) {
		t.Errorf("want no device and ErrNoDevice, got %v, %v", dev, err)
	}
	if ok, fail := s.PlaceCounts(); ok != 0 || fail != 1 {
		t.Errorf("place counts = %d ok, %d failed; want 0, 1", ok, fail)
	}
}

func TestTooLarge(t *testing.T) {
	s, _ := twoK40s()
	if dev, err := run(s, 64<<30, noop); dev != nil || !errors.Is(err, ErrTooLarge) {
		t.Errorf("want ErrTooLarge, got %v, %v", dev, err)
	}
}

func TestInvalidDemand(t *testing.T) {
	s, _ := twoK40s()
	for _, demand := range []int64{0, -1} {
		if dev, err := run(s, demand, noop); dev != nil || err == nil {
			t.Errorf("Run(%d) should fail, got %v, %v", demand, dev, err)
		}
	}
}

// The reservation is gone when Run returns, and an fn that gave it back
// early does not make Run's own release corrupt the accounting.
func TestPlacementReleaseIdempotent(t *testing.T) {
	s, devs := twoK40s()
	dev, err := run(s, 1<<30, func(res *gpu.Reservation) error {
		if free := res.Device().FreeMemory(); free != res.Device().TotalMemory()-1<<30 {
			t.Errorf("demand not held while fn runs: %d free", free)
		}
		res.Release()
		return nil
	})
	if dev == nil {
		t.Fatal(err)
	}
	if free, total := fleetFree(devs); free != total {
		t.Errorf("double release corrupted device accounting: %d of %d free", free, total)
	}
}

func TestConcurrentPlacement(t *testing.T) {
	s, devs := twoK40s()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := runWhenFree(s, 2<<30, func(*gpu.Reservation) error {
				time.Sleep(time.Millisecond)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, d := range devs {
		if d.FreeMemory() != d.TotalMemory() {
			t.Errorf("device %d leaked memory", d.ID())
		}
	}
	if ok, _ := s.PlaceCounts(); ok != 32 {
		t.Errorf("placements = %d, want 32", ok)
	}
}

func TestHeterogeneousFleet(t *testing.T) {
	small := vtime.TeslaK40()
	small.DeviceMemory = 2 << 30
	small.Name = "small"
	d0 := gpu.NewDevice(0, small)
	d1 := gpu.NewDevice(1, vtime.TeslaK40())
	s, _ := New(d0, d1)
	// A 4 GB task can only go to the K40.
	dev, err := run(s, 4<<30, noop)
	if err != nil {
		t.Fatal(err)
	}
	if dev.ID() != 1 {
		t.Errorf("4GB task placed on device %d, want 1", dev.ID())
	}
	snaps := s.Snapshot()
	if len(snaps) != 2 || snaps[0].TotalMemory != 2<<30 {
		t.Errorf("snapshot mismatch: %+v", snaps)
	}
}

// The placement span and the reservation's binding: a "place" child under
// the caller's span, and device events caused by fn attributed to the
// caller's span itself.
func TestRunTracesPlacementAndBindsSpan(t *testing.T) {
	s, _ := twoK40s()
	tr := trace.New()
	q := tr.StartQuery("q", 0)
	attempt := q.Begin("gpu", "attempt", 0)
	dev, err := s.Run(attempt, 0, 1<<20, map[int]bool{0: true}, func(res *gpu.Reservation) error {
		if res.Span() != attempt.ID() {
			t.Errorf("reservation bound to span %d, want the caller's %d", res.Span(), attempt.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if dev.ID() != 1 {
		t.Errorf("placed on excluded device %d", dev.ID())
	}
	attempt.End(0)
	q.End(0)
	var place *trace.Span
	spans := tr.QuerySpans(q.Query())
	for i := range spans {
		if spans[i].Name == "place" {
			place = &spans[i]
		}
	}
	if place == nil || place.Parent != attempt.ID() {
		t.Fatalf("no place span under the attempt: %+v", spans)
	}
	got := map[string]int64{}
	for _, a := range place.Attrs {
		got[a.Key] = a.Int
	}
	if got["demand_bytes"] != 1<<20 || got["device"] != 1 {
		t.Errorf("place span attrs = %+v", place.Attrs)
	}
}
