package gpu

import (
	"errors"
	"fmt"
	"sync/atomic"

	"blugpu/internal/fault"
	"blugpu/internal/trace"
)

// ErrOutOfMemory is returned when a reservation or allocation exceeds the
// device's free memory. Per Section 2.1.1 the caller then either waits for
// memory to become available or falls back to the CPU path — it never
// starts a kernel that could fail mid-flight.
var ErrOutOfMemory = errors.New("gpu: out of device memory")

// Reservation is an up-front claim on device memory. All memory a kernel
// call needs comes out of its reservation, so admission control happens
// once, before any work starts; a task whose reservation succeeds cannot
// hit an out-of-memory error during execution.
type Reservation struct {
	dev      *Device
	total    int64
	used     int64
	released bool
	span     atomic.Uint64 // trace.SpanID attribution for transfers
}

// Reserve claims n bytes of device memory up front. It fails fast with
// ErrOutOfMemory when the device cannot satisfy the claim.
func (d *Device) Reserve(n int64) (*Reservation, error) {
	return d.ReserveSpan(n, 0)
}

// ReserveSpan is Reserve with the caller's tracer span attached: the
// reserve event (and any injected reservation fault) is reported under
// sp, and the reservation starts bound to sp — its transfers inherit the
// span until BindSpan rebinds it. sp 0 means untraced.
func (d *Device) ReserveSpan(n int64, sp trace.SpanID) (*Reservation, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gpu: invalid reservation size %d", n)
	}
	if err := d.injectFault(fault.Reserve, sp); err != nil {
		d.emit(Event{Kind: EventReserveFail, Bytes: n, Span: sp})
		return nil, err
	}
	d.mu.Lock()
	if d.memUsed+n > d.spec.DeviceMemory {
		d.mu.Unlock()
		d.emit(Event{Kind: EventReserveFail, Bytes: n, Span: sp})
		return nil, ErrOutOfMemory
	}
	d.memUsed += n
	if d.memUsed > d.memPeak {
		d.memPeak = d.memUsed
	}
	d.mu.Unlock()
	d.emit(Event{Kind: EventReserve, Bytes: n, Span: sp})
	r := &Reservation{dev: d, total: n}
	r.span.Store(uint64(sp))
	return r, nil
}

// BindSpan rebinds the reservation (and every transfer through it) to a
// tracer span. The scheduler reserves under its placement span; the owner
// then rebinds to the span doing the actual compute so kernel and
// transfer events attribute to it.
func (r *Reservation) BindSpan(sp trace.SpanID) { r.span.Store(uint64(sp)) }

// Span returns the reservation's current trace binding, 0 if untraced.
func (r *Reservation) Span() trace.SpanID { return trace.SpanID(r.span.Load()) }

// Size returns the reserved byte count.
func (r *Reservation) Size() int64 { return r.total }

// Used returns bytes claimed out of the reservation so far.
func (r *Reservation) Used() int64 { return r.used }

// Device returns the owning device.
func (r *Reservation) Device() *Device { return r.dev }

// Claim takes n bytes out of the reservation: staged inputs, resident
// column images, fused-stage intermediates, hash tables, sort buffers,
// result blocks. Device memory is accounted, never filled — the simulator
// charges transfers and counts footprint from byte counts, and kernels
// compute on the host's slices.
func (r *Reservation) Claim(n int64) error {
	if r.released {
		return errors.New("gpu: allocation from released reservation")
	}
	if n <= 0 {
		return fmt.Errorf("gpu: invalid claim of %d bytes", n)
	}
	if r.used+n > r.total {
		return fmt.Errorf("gpu: reservation overflow: need %d bytes, %d of %d used: %w",
			n, r.used, r.total, ErrOutOfMemory)
	}
	r.used += n
	return nil
}

// Release returns the entire reservation to the device. Release is
// idempotent. Kernel completion paths call it so reserved memory is
// immediately reusable by queued tasks.
func (r *Reservation) Release() {
	if r.released {
		return
	}
	r.released = true
	r.dev.mu.Lock()
	r.dev.memUsed -= r.total
	r.dev.mu.Unlock()
}
