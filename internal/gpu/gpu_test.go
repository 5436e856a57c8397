package gpu

import (
	"errors"
	"sync"
	"testing"

	"blugpu/internal/parallel"
	"blugpu/internal/vtime"
)

func newTestDevice(opts ...Option) *Device {
	return NewDevice(0, vtime.TeslaK40(), opts...)
}

func TestReserveRelease(t *testing.T) {
	d := newTestDevice()
	total := d.TotalMemory()
	r, err := d.Reserve(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if d.FreeMemory() != total-(1<<30) {
		t.Errorf("FreeMemory = %d, want %d", d.FreeMemory(), total-(1<<30))
	}
	r.Release()
	if d.FreeMemory() != total {
		t.Errorf("FreeMemory after release = %d, want %d", d.FreeMemory(), total)
	}
	r.Release() // idempotent
	if d.FreeMemory() != total {
		t.Error("double release corrupted accounting")
	}
}

func TestReserveOutOfMemory(t *testing.T) {
	d := newTestDevice()
	if _, err := d.Reserve(d.TotalMemory() + 1); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("expected ErrOutOfMemory, got %v", err)
	}
	// Two reservations that fit individually but not together: admission
	// control must reject the second up front, not mid-kernel.
	r1, err := d.Reserve(8 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Reserve(8 << 30); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("second 8GB reservation should fail on a 12GB device, got %v", err)
	}
	r1.Release()
	if _, err := d.Reserve(8 << 30); err != nil {
		t.Errorf("after release the reservation should succeed: %v", err)
	}
}

func TestReserveInvalid(t *testing.T) {
	d := newTestDevice()
	if _, err := d.Reserve(0); err == nil {
		t.Error("Reserve(0) should fail")
	}
	if _, err := d.Reserve(-1); err == nil {
		t.Error("Reserve(-1) should fail")
	}
}

func TestAllocWithinReservation(t *testing.T) {
	d := newTestDevice()
	r, _ := d.Reserve(1 << 20)
	if err := r.Claim(8192); err != nil {
		t.Fatal(err)
	}
	if err := r.Claim(4096); err != nil {
		t.Fatal(err)
	}
	if r.Used() != 8192+4096 {
		t.Errorf("Used = %d, want %d", r.Used(), 8192+4096)
	}
	// Overflowing the reservation must fail without touching the device.
	if err := r.Claim(1 << 20); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("claim overflow should wrap ErrOutOfMemory, got %v", err)
	}
	if r.Used() != 8192+4096 || d.Util().ReservedBytes != 1<<20 {
		t.Errorf("failed claim moved the accounting: used %d, device %d", r.Used(), d.Util().ReservedBytes)
	}
	if err := r.Claim(0); err == nil {
		t.Error("empty claim should fail")
	}
	r.Release()
	if err := r.Claim(8); err == nil {
		t.Error("claim from released reservation should fail")
	}
}

// TestRunKernelParallelFor: a kernel body fans its work out over the
// host's workers with parallel.For, as the group-by kernels do, and the
// call counts as outstanding for as long as that work runs.
func TestRunKernelParallelFor(t *testing.T) {
	d := newTestDevice()
	const n = 100000
	out := make([]uint64, n)
	res := d.RunKernel("square", func() vtime.Duration {
		if d.Outstanding() != 1 {
			t.Errorf("outstanding = %d inside the body, want 1", d.Outstanding())
		}
		parallel.For(n, 4096, 8, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				out[i] = uint64(i) * uint64(i)
			}
		})
		return 5 * vtime.Millisecond
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Modeled <= 5*vtime.Millisecond {
		t.Error("modeled time must include kernel launch overhead")
	}
	for _, i := range []int{0, 1, 777, n - 1} {
		if out[i] != uint64(i)*uint64(i) {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
	if c := d.Counters(); c.Kernels != 1 {
		t.Errorf("kernel counter = %d, want 1", c.Kernels)
	}
	if d.Outstanding() != 0 {
		t.Error("outstanding should be 0 after completion")
	}
}

func TestTransfers(t *testing.T) {
	d := newTestDevice()
	r, _ := d.Reserve(1 << 16)
	defer r.Release()
	if err := r.Claim(1024); err != nil {
		t.Fatal(err)
	}
	tp, err := r.CopyToDevice(1024, true)
	if err != nil {
		t.Fatal(err)
	}
	tu, _ := r.CopyToDevice(1024, false)
	if tu <= tp {
		t.Errorf("unpinned (%v) should be slower than pinned (%v)", tu, tp)
	}
	if tp != d.TransferTime(1024, true) {
		t.Errorf("pinned h2d = %v, want the modeled %v", tp, d.TransferTime(1024, true))
	}
	td, err := r.CopyFromDevice(1024, true)
	if err != nil {
		t.Fatal(err)
	}
	if td != tp {
		t.Errorf("d2h of the same bytes = %v, want %v", td, tp)
	}
	if c := d.Counters(); c.Transfers != 3 {
		t.Errorf("transfer count = %d, want 3", c.Transfers)
	}
}

func TestSharedMemSplit(t *testing.T) {
	d := newTestDevice()
	if d.SharedMemBytes() != 48<<10 {
		t.Errorf("default shared split = %d, want 48KiB", d.SharedMemBytes())
	}
	d2 := newTestDevice(WithSharedSplit(16 << 10))
	if d2.SharedMemBytes() != 16<<10 {
		t.Errorf("configured split = %d, want 16KiB", d2.SharedMemBytes())
	}
	// Splits above the hardware pool clamp.
	d3 := newTestDevice(WithSharedSplit(1 << 20))
	if d3.SharedMemBytes() != d3.Spec().SharedMemPerSMX {
		t.Error("shared split should clamp to the SMX pool size")
	}
}

type captureSink struct {
	mu     sync.Mutex
	events []Event
}

func (c *captureSink) RecordGPUEvent(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func TestEventsEmitted(t *testing.T) {
	sink := &captureSink{}
	d := NewDevice(3, vtime.TeslaK40(), WithSink(sink))
	r, _ := d.Reserve(1 << 16)
	r.CopyToDevice(64, true)
	d.RunKernel("k", func() vtime.Duration { return 0 })
	r.CopyFromDevice(64, true)
	r.Release()
	d.Reserve(d.TotalMemory() * 2) // fails -> reserve-fail event

	kinds := map[EventKind]int{}
	sink.mu.Lock()
	for _, e := range sink.events {
		if e.Device != 3 {
			t.Errorf("event device = %d, want 3", e.Device)
		}
		kinds[e.Kind]++
	}
	sink.mu.Unlock()
	for _, k := range []EventKind{EventReserve, EventTransferH2D, EventKernel, EventTransferD2H, EventReserveFail} {
		if kinds[k] != 1 {
			t.Errorf("event kind %v count = %d, want 1", k, kinds[k])
		}
	}
}

// TestParallelForReraisesWorkerPanic: a kernel body panicking on one of
// its parallel.For workers reaches RunKernel's caller, and the kernel call
// is no longer counted outstanding.
func TestParallelForReraisesWorkerPanic(t *testing.T) {
	d := newTestDevice()
	got := func() (r any) {
		defer func() { r = recover() }()
		d.RunKernel("boom", func() vtime.Duration {
			parallel.For(1<<12, 64, 8, func(lo, hi, _ int) {
				if lo == 0 {
					panic("kernel blew up")
				}
			})
			return 0
		})
		return nil
	}()
	if got != "kernel blew up" {
		t.Fatalf("recovered %v, want the kernel's panic", got)
	}
	if d.Outstanding() != 0 {
		t.Error("panicked kernel left outstanding count nonzero")
	}
}
