// Package sched implements the multi-GPU task scheduler of paper
// Section 2.2.
//
// Every kernel call knows its device-memory demand in advance (computed
// from the query type, input size and internal data-structure sizes), so
// scheduling is admission control: the scheduler tracks, per device, the
// number of outstanding jobs and the free device memory, and places each
// task on the least-loaded device that can satisfy its whole demand up
// front. Devices need not be homogeneous.
//
// When no device fits, Section 2.1.1 offers two behaviours: wait until
// memory becomes available, or fall back to the CPU path. Like the
// paper's prototype this scheduler never waits: Run reports that nothing
// was placed and the caller takes the CPU path.
//
// Beyond the paper's happy path, the scheduler tracks per-device health
// with a circuit breaker: a device whose operations keep failing (fault
// injection, simulated device loss) is quarantined after
// DefaultFailThreshold consecutive failures and re-admitted half-open
// after a virtual-time probation. The scheduler never asks a device
// whether it is "alive" — like a real driver stack, it discovers death
// through failed operations and routes around it.
package sched

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"blugpu/internal/gpu"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// ErrNoDevice is returned by Run when no device can currently satisfy the
// task's memory demand.
var ErrNoDevice = errors.New("sched: no device can satisfy the request")

// ErrTooLarge is returned when the demand exceeds every device's total
// memory: waiting would never help. The engine sends such queries down the
// CPU path (the paper's prototype does the same above threshold T3).
var ErrTooLarge = errors.New("sched: request exceeds every device's capacity")

// DefaultFailThreshold is the consecutive-failure count that trips a
// device's circuit breaker.
const DefaultFailThreshold = 3

// DefaultProbation is the virtual-time quarantine after a breaker trip.
// After it elapses the device is re-admitted half-open: a single further
// failure re-trips immediately.
const DefaultProbation = 250 * vtime.Millisecond

// Sink receives degradation events. The engine's performance monitor
// (internal/monitor) implements it structurally; a nil sink discards.
// Implementations must be safe for concurrent use.
type Sink interface {
	// RecordGPURetry reports that an operation op failed on one device
	// and was retried on another. faulted marks injected faults (or
	// device loss) as opposed to organic admission races.
	RecordGPURetry(op string, faulted bool)
	// RecordBreaker reports a circuit-breaker transition for a device:
	// tripped (quarantined) or recovered.
	RecordBreaker(device int, tripped bool)
}

// health is the per-device circuit-breaker state.
type health struct {
	consecutive int
	quarantined bool
	reopenAt    vtime.Time
	trips       uint64
	recoveries  uint64
}

// Scheduler places tasks across a fleet of (possibly heterogeneous) GPUs.
// It is safe for concurrent use.
type Scheduler struct {
	mu      sync.Mutex
	devices []*gpu.Device
	byID    map[int]int // device ID -> index into devices/health
	health  []health
	now     vtime.Time
	sink    Sink

	failThreshold int
	probation     vtime.Duration

	// placements/placeFails count admissions and terminal placement
	// failures (the metrics layer exposes both). Same-placement retries
	// down the candidate ranking are reported to the sink, not counted
	// here.
	placements uint64
	placeFails uint64
}

// New builds a scheduler over the given devices.
func New(devices ...*gpu.Device) (*Scheduler, error) {
	if len(devices) == 0 {
		return nil, errors.New("sched: at least one device required")
	}
	s := &Scheduler{
		devices:       devices,
		byID:          make(map[int]int, len(devices)),
		health:        make([]health, len(devices)),
		failThreshold: DefaultFailThreshold,
		probation:     DefaultProbation,
	}
	for i, d := range devices {
		if _, dup := s.byID[d.ID()]; dup {
			return nil, fmt.Errorf("sched: duplicate device id %d", d.ID())
		}
		s.byID[d.ID()] = i
	}
	return s, nil
}

// SetSink attaches a degradation-event sink.
func (s *Scheduler) SetSink(sink Sink) {
	s.mu.Lock()
	s.sink = sink
	s.mu.Unlock()
}

// SetBreaker overrides the circuit-breaker tuning. threshold <= 0 or
// probation <= 0 keep the respective default.
func (s *Scheduler) SetBreaker(threshold int, probation vtime.Duration) {
	s.mu.Lock()
	if threshold > 0 {
		s.failThreshold = threshold
	}
	if probation > 0 {
		s.probation = probation
	}
	s.mu.Unlock()
}

// Devices returns a copy of the managed fleet. Callers may reorder or
// truncate the returned slice without affecting the scheduler.
func (s *Scheduler) Devices() []*gpu.Device {
	out := make([]*gpu.Device, len(s.devices))
	copy(out, s.devices)
	return out
}

// Advance moves the scheduler's virtual clock forward. The engine calls
// it with each query's modeled duration so quarantine probations expire
// in virtual time, consistent with the rest of the simulation.
func (s *Scheduler) Advance(d vtime.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.now = s.now.Add(d)
	s.mu.Unlock()
}

// Now returns the scheduler's virtual clock.
func (s *Scheduler) Now() vtime.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// DeviceHealth is a snapshot of one device's breaker state.
type DeviceHealth struct {
	Device           int
	ConsecutiveFails int
	Quarantined      bool
	ReopenAt         vtime.Time
	Trips            uint64
	Recoveries       uint64
}

// Health returns the current breaker state of every device.
func (s *Scheduler) Health() []DeviceHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DeviceHealth, len(s.devices))
	for i, d := range s.devices {
		h := s.health[i]
		out[i] = DeviceHealth{
			Device:           d.ID(),
			ConsecutiveFails: h.consecutive,
			Quarantined:      h.quarantined,
			ReopenAt:         h.reopenAt,
			Trips:            h.trips,
			Recoveries:       h.recoveries,
		}
	}
	return out
}

// ReportFailure records a failed GPU operation on dev (after placement:
// a transfer or kernel fault). Enough consecutive failures trip the
// device's breaker.
func (s *Scheduler) ReportFailure(dev *gpu.Device) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.byID[dev.ID()]; ok {
		s.reportFailureLocked(i)
	}
}

// ReportSuccess records a successful GPU operation on dev, resetting its
// consecutive-failure count (and completing a half-open probe).
func (s *Scheduler) ReportSuccess(dev *gpu.Device) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.byID[dev.ID()]; ok {
		s.reportSuccessLocked(i)
	}
}

func (s *Scheduler) reportFailureLocked(i int) {
	h := &s.health[i]
	h.consecutive++
	if h.consecutive >= s.failThreshold && !h.quarantined {
		h.quarantined = true
		h.reopenAt = s.now.Add(s.probation)
		h.trips++
		if s.sink != nil {
			s.sink.RecordBreaker(s.devices[i].ID(), true)
		}
	}
}

func (s *Scheduler) reportSuccessLocked(i int) {
	h := &s.health[i]
	h.consecutive = 0
	// A demonstrated success closes the breaker outright. Normally the
	// device was already re-admitted half-open by eligibleLocked, but a
	// success reported before any new placement (e.g. an operation that
	// outlived the quarantine) must not leave the device counted as
	// recovered yet still quarantined.
	h.quarantined = false
	if h.trips > h.recoveries {
		h.recoveries++
		if s.sink != nil {
			s.sink.RecordBreaker(s.devices[i].ID(), false)
		}
	}
}

// eligibleLocked reports whether device i may take placements now. A
// quarantined device whose probation has expired is re-admitted
// half-open: its consecutive count restarts one below the threshold, so
// a single failed probe re-trips the breaker.
func (s *Scheduler) eligibleLocked(i int) bool {
	h := &s.health[i]
	if !h.quarantined {
		return true
	}
	if s.now.Before(h.reopenAt) {
		return false
	}
	h.quarantined = false
	h.consecutive = s.failThreshold - 1
	return true
}

// Run is the one way to obtain device memory: it admits a task needing
// demand bytes, hands fn the reservation, and settles everything the
// attempt owes afterwards. Among eligible devices not in exclude with
// enough free memory it picks the one with the fewest outstanding jobs,
// breaking ties toward the most free memory; callers retrying after an
// operation fault pass the faulted device in exclude.
//
// The placement is recorded as a "place" child span of tc at virtual
// time at — demand, chosen device or terminal error, every
// breaker-quarantine skip — and the reservation is bound to tc, so every
// kernel, transfer and injected fault fn causes lands on the caller's
// span. The reservation is released exactly once when fn returns or
// panics. fn's error then feeds the device's breaker: nil counts as a
// success, an injected fault (gpu.ErrInjected) as a failure, anything
// else — a decline, a full table, a cancellation — as neither.
//
// dev is nil exactly when nothing was placed; fn never ran and err is the
// placement error (ErrTooLarge, or ErrNoDevice wrapping the last
// reservation failure). Otherwise err is fn's.
func (s *Scheduler) Run(tc trace.Context, at vtime.Time, demand int64, exclude map[int]bool, fn func(*gpu.Reservation) error) (*gpu.Device, error) {
	if demand <= 0 {
		return nil, fmt.Errorf("sched: invalid memory demand %d", demand)
	}
	child := tc.Begin("sched", "place", at)
	s.mu.Lock()
	res, err := s.placeLocked(demand, exclude, child)
	if err != nil {
		s.placeFails++
	}
	s.mu.Unlock()
	attrs := []trace.Attr{trace.Int("demand_bytes", demand)}
	if err != nil {
		child.End(at, append(attrs, trace.Str("error", err.Error()))...)
		return nil, err
	}
	dev := res.Device()
	child.End(at, append(attrs, trace.Int("device", int64(dev.ID())))...)
	res.BindSpan(tc.ID())
	err = func() error {
		// Deferred so a panicking fn cannot keep device memory. The panic
		// then passes the breaker report below by: it says nothing about
		// the device.
		defer res.Release()
		return fn(res)
	}()
	if err == nil {
		s.ReportSuccess(dev)
	} else if errors.Is(err, gpu.ErrInjected) {
		s.ReportFailure(dev)
	}
	return dev, err
}

// placeLocked ranks every eligible device that can take the demand and
// attempts the reservation down the ranking: a device whose Reserve
// fails (lost a race with a direct reservation, or faulted) does not
// give up the placement while other candidates remain. The terminal
// error wraps the last reservation failure so callers can classify it.
//
// tc, when enabled, is the placement span: reservations run under its
// id (attributing reserve faults to it) and quarantine skips become
// attributes on it.
func (s *Scheduler) placeLocked(memNeed int64, exclude map[int]bool, tc trace.Context) (*gpu.Reservation, error) {
	type candidate struct {
		idx  int
		jobs int
		free int64
	}
	var cands []candidate
	fitsAnywhere := false
	for i, d := range s.devices {
		if memNeed <= d.TotalMemory() {
			fitsAnywhere = true
		}
		if exclude[d.ID()] {
			continue
		}
		if !s.eligibleLocked(i) {
			if tc.Enabled() {
				tc.Annotate(trace.Str("quarantined",
					fmt.Sprintf("gpu%d reopen@%.6fs", d.ID(), float64(s.health[i].reopenAt))))
			}
			continue
		}
		free := d.FreeMemory()
		if free < memNeed {
			continue
		}
		jobs := d.Outstanding()
		if jobs >= d.Spec().MaxConcurrentKernels {
			continue
		}
		cands = append(cands, candidate{idx: i, jobs: jobs, free: free})
	}
	if !fitsAnywhere {
		return nil, ErrTooLarge
	}
	sort.Slice(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if ca.jobs != cb.jobs {
			return ca.jobs < cb.jobs
		}
		if ca.free != cb.free {
			return ca.free > cb.free
		}
		return ca.idx < cb.idx
	})
	var lastErr error
	for n, c := range cands {
		res, err := s.devices[c.idx].ReserveSpan(memNeed, tc.ID())
		if err == nil {
			s.placements++
			return res, nil
		}
		lastErr = err
		faulted := errors.Is(err, gpu.ErrInjected)
		if faulted {
			s.reportFailureLocked(c.idx)
		}
		if n+1 < len(cands) && s.sink != nil {
			// Another candidate remains: this failure becomes a
			// same-placement retry, not a terminal error.
			s.sink.RecordGPURetry("place", faulted)
		}
	}
	if lastErr != nil {
		return nil, fmt.Errorf("%w: %w", ErrNoDevice, lastErr)
	}
	return nil, ErrNoDevice
}

// PlaceCounts returns (successful placements, terminal placement
// failures) since the scheduler was built.
func (s *Scheduler) PlaceCounts() (ok, fail uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.placements, s.placeFails
}

// Snapshot reports the fleet state for monitoring and tests.
type Snapshot struct {
	Device      int
	Outstanding int
	FreeMemory  int64
	TotalMemory int64
}

// Snapshot returns the current per-device state.
func (s *Scheduler) Snapshot() []Snapshot {
	out := make([]Snapshot, len(s.devices))
	for i, d := range s.devices {
		out[i] = Snapshot{
			Device:      d.ID(),
			Outstanding: d.Outstanding(),
			FreeMemory:  d.FreeMemory(),
			TotalMemory: d.TotalMemory(),
		}
	}
	return out
}
