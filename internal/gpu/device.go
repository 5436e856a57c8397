// Package gpu implements the simulated GPU device the engine offloads to.
//
// The paper's prototype targets Nvidia Tesla K40 cards through CUDA. A
// pure-Go, stdlib-only reproduction cannot drive real CUDA hardware, so
// this package models the device the paper's kernels run on — its
// accounting, not its threads:
//
//   - a device-memory heap with the up-front reservation discipline of
//     Section 2.1.1 (reserve-or-fail before kernel launch; wait or fall
//     back to the CPU on failure),
//   - kernel launches: admission (the outstanding count the scheduler
//     balances on), the kernel fault site, launch overhead, counters and
//     the kernel event,
//   - SMX shared-memory constraints (64 KiB configurable 48/16 between
//     shared memory and L1, Section 4.3.2),
//   - a transfer engine distinguishing pinned from unpinned host memory.
//
// A kernel body computes its answer on the host — deterministically, in
// the same code the CPU path runs — and returns its modeled time from
// vtime.CostModel, so that the performance *shape* of a K40 (massive
// parallel throughput, kernel-launch latency, PCIe transfer cost) is
// preserved while answers and modeled time depend only on the input.
// Section 4.4's atomics and row locks are cost terms (vtime's
// AtomicContentionFactor and LockContentionFactor over the rows-per-group
// ratio), not goroutines racing over shared words.
//
// Device memory is accounted, never filled: a reservation hands out bytes
// by Claim, and transfers are byte counts with their fault site,
// counters, modeled time and event.
package gpu

import (
	"fmt"
	"sync"

	"blugpu/internal/fault"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// EventKind classifies monitor events emitted by the device.
type EventKind int

const (
	// EventKernel is a kernel execution.
	EventKernel EventKind = iota
	// EventTransferH2D is a host-to-device copy.
	EventTransferH2D
	// EventTransferD2H is a device-to-host copy.
	EventTransferD2H
	// EventReserve is a device-memory reservation.
	EventReserve
	// EventReserveFail is a failed device-memory reservation.
	EventReserveFail
	// EventFault is an injected fault firing at an operation site (the
	// Name field carries the fault.Site string).
	EventFault
)

func (k EventKind) String() string {
	switch k {
	case EventKernel:
		return "kernel"
	case EventTransferH2D:
		return "h2d"
	case EventTransferD2H:
		return "d2h"
	case EventReserve:
		return "reserve"
	case EventReserveFail:
		return "reserve-fail"
	case EventFault:
		return "fault"
	default:
		return "unknown"
	}
}

// Event is one timed device activity, reported to the EventSink.
type Event struct {
	Device  int
	Kind    EventKind
	Name    string
	Bytes   int64
	Modeled vtime.Duration
	// Span is the tracer span the operation runs under, 0 when the
	// caller is untraced. Kernels carry the span passed to
	// RunKernelSpan; transfers and faults inherit the span bound to the
	// reservation they run through.
	Span trace.SpanID
}

// EventSink receives device events. The engine's performance monitor
// (internal/monitor) implements it; a nil sink discards events.
type EventSink interface {
	RecordGPUEvent(Event)
}

// Device is one simulated GPU.
type Device struct {
	id    int
	spec  vtime.GPUSpec
	sink  EventSink
	model *vtime.CostModel
	inj   *fault.Injector

	mu          sync.Mutex
	memUsed     int64 // bytes allocated or reserved
	memPeak     int64 // lifetime high-water mark of memUsed
	outstanding int   // kernel calls admitted but not finished
	kernels     uint64
	transfers   uint64

	// Per-kind busy time in modeled (virtual) seconds, accumulated
	// sink-independently so utilization accounting works even on devices
	// without a monitor attached. Kernel time can overlap across
	// concurrent launches, so busy totals are device-work time, not
	// elapsed time — the ratio against the virtual clock may exceed 1.
	busyKernel vtime.Duration
	busyH2D    vtime.Duration
	busyD2H    vtime.Duration

	// sharedSplit is the byte count of the SMX pool configured as shared
	// memory (the rest is L1). Kernel 2 sizes its per-SMX tables by it.
	sharedSplit int
}

// Option configures a Device.
type Option func(*Device)

// WithSink attaches a monitor sink.
func WithSink(s EventSink) Option { return func(d *Device) { d.sink = s } }

// WithSharedSplit sets the shared-memory portion of each SMX's 64 KiB
// configurable pool (default: 48 KiB shared / 16 KiB L1).
func WithSharedSplit(bytes int) Option { return func(d *Device) { d.sharedSplit = bytes } }

// WithFaults attaches a fault injector consulted at every operation
// site (reservation, transfers, kernel launches). A nil injector — the
// default — never injects.
func WithFaults(inj *fault.Injector) Option { return func(d *Device) { d.inj = inj } }

// NewDevice creates a simulated device with the given id and spec.
func NewDevice(id int, spec vtime.GPUSpec, opts ...Option) *Device {
	d := &Device{
		id:          id,
		spec:        spec,
		sharedSplit: 48 << 10,
	}
	for _, o := range opts {
		o(d)
	}
	if d.sharedSplit > spec.SharedMemPerSMX {
		d.sharedSplit = spec.SharedMemPerSMX
	}
	return d
}

// ID returns the device index.
func (d *Device) ID() int { return d.id }

// Spec returns the device's hardware description.
func (d *Device) Spec() vtime.GPUSpec { return d.spec }

// SharedMemBytes returns the per-SMX shared-memory budget under the
// current split (paper: 48 KiB shared / 16 KiB L1).
func (d *Device) SharedMemBytes() int { return d.sharedSplit }

// TotalMemory returns the device-memory capacity in bytes.
func (d *Device) TotalMemory() int64 { return d.spec.DeviceMemory }

// FreeMemory returns unreserved device memory in bytes.
func (d *Device) FreeMemory() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.spec.DeviceMemory - d.memUsed
}

// Outstanding returns the number of admitted, unfinished kernel calls.
// The multi-GPU scheduler balances on this.
func (d *Device) Outstanding() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.outstanding
}

// Counters is a snapshot of device activity totals.
type Counters struct {
	Kernels   uint64
	Transfers uint64
}

// Counters returns a snapshot of device activity.
func (d *Device) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Counters{Kernels: d.kernels, Transfers: d.transfers}
}

// Utilization is a snapshot of the device's cumulative busy time split
// by activity kind, plus its reservation occupancy. Busy time is
// modeled virtual time, so snapshots are deterministic for a given
// workload.
type Utilization struct {
	Kernel vtime.Duration
	H2D    vtime.Duration
	D2H    vtime.Duration
	// ReservedBytes is current reservation occupancy: bytes allocated
	// or reserved.
	ReservedBytes int64
	// ReservedPeakBytes is the lifetime high-water mark of occupancy.
	ReservedPeakBytes int64
}

// Busy returns total device-busy time across all kinds.
func (u Utilization) Busy() vtime.Duration { return u.Kernel + u.H2D + u.D2H }

// Util returns the device's utilization snapshot.
func (d *Device) Util() Utilization {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Utilization{
		Kernel:            d.busyKernel,
		H2D:               d.busyH2D,
		D2H:               d.busyD2H,
		ReservedBytes:     d.memUsed,
		ReservedPeakBytes: d.memPeak,
	}
}

func (d *Device) emit(e Event) {
	e.Device = d.id
	d.mu.Lock()
	switch e.Kind {
	case EventKernel:
		d.busyKernel += e.Modeled
	case EventTransferH2D:
		d.busyH2D += e.Modeled
	case EventTransferD2H:
		d.busyD2H += e.Modeled
	}
	d.mu.Unlock()
	if d.sink != nil {
		d.sink.RecordGPUEvent(e)
	}
}

func (d *Device) String() string {
	return fmt.Sprintf("gpu%d(%s, %.1fGB)", d.id, d.spec.Name, float64(d.spec.DeviceMemory)/(1<<30))
}
