package engine

import (
	"errors"

	"blugpu/internal/gpu"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// maxGPUAttempts bounds the device attempts per operation: the first try
// plus one retry on a different device. Exhausting the attempts routes
// the operation to the host (Section 2.1.1's fallback) — a query never
// fails because a GPU operation failed.
const maxGPUAttempts = 2

// gpuRetryBackoff is the modeled delay charged to a query before it
// retries a failed GPU operation on another device (doubling per
// attempt).
const gpuRetryBackoff = 100 * vtime.Microsecond

// errFuseDecline is what a placed fused attempt returns when it gives the
// reservation back without having tried the device: not a fault, so it
// leaves the breaker alone and is not retried.
var errFuseDecline = errors.New("engine: fused chain declined")

// devCall is one device operation: the staged group-by, a fused chain or
// a GPU sort job.
type devCall struct {
	op     string                   // monitor operation of its retries
	span   func(attempt int) string // attempt span name
	demand int64
	prefer *gpu.Device // tried alone before the fleet, when set
	// run is the work on one placement; it returns the attributes the
	// attempt span ends with, after the device.
	run func(res *gpu.Reservation) ([]trace.Attr, error)
}

// gpuRunInfo summarizes a device call for its operator row. declined
// marks a call that never tried the device: run gave the reservation
// back, or no device could take the demand and none faulted.
type gpuRunInfo struct {
	attempts int
	retries  int
	devices  []int
	backoff  vtime.Duration // retry backoff charged to the caller's clock
	declined bool
}

// onDevice is the engine's one device-operator contract (Sections 2.1.1
// and 2.2), the only caller of sched.Run. Each attempt of c is a child
// span of tc on the clock base + *off; a fault, once, retries on another
// device after the doubling modeled backoff is charged to *off. On an
// error the caller takes its host path — or, on a decline, a cheaper one.
func (e *Engine) onDevice(tc trace.Context, base vtime.Time, off *vtime.Duration, c devCall) (gpuRunInfo, error) {
	var info gpuRunInfo
	exclude := make(map[int]bool)
	backoff := gpuRetryBackoff
	for {
		info.attempts++
		g := tc.Begin("gpu", c.span(info.attempts), base.Add(*off))
		var attrs []trace.Attr
		dev, err := e.place(g, base.Add(*off), c.demand, c.prefer, exclude, func(res *gpu.Reservation) (err error) {
			attrs, err = c.run(res)
			return err
		})
		if dev == nil {
			// Waiting for memory is an option (Section 2.1.1); the
			// prototype takes the host path instead.
			g.End(base.Add(*off), trace.Str("error", err.Error()))
			info.declined = !errors.Is(err, gpu.ErrInjected)
			return info, err
		}
		info.devices = append(info.devices, dev.ID())
		attrs = append([]trace.Attr{trace.Int("device", int64(dev.ID()))}, attrs...)
		if err == nil || errors.Is(err, errFuseDecline) {
			g.End(base.Add(*off), attrs...)
			info.declined = err != nil
			return info, err
		}
		g.End(base.Add(*off), append(attrs, trace.Str("error", err.Error()))...)
		if info.attempts == maxGPUAttempts {
			return info, err
		}
		info.retries++
		e.mon.RecordGPURetry(c.op, errors.Is(err, gpu.ErrInjected))
		exclude[dev.ID()] = true
		tc.Emit("gpu", "retry-backoff", base.Add(*off), backoff, trace.Str("cause", err.Error()))
		*off += backoff
		info.backoff += backoff
		backoff *= 2
	}
}

// place runs fn on the first placement of: prefer alone, while another
// device remains; the fleet less exclude; and, when purging the column
// cache freed anything — resident bytes must never starve live queries —
// that fleet again. A step that places nothing is a place retry, as when
// the scheduler moves down its own ranking, so an injected reservation
// fault stays paired with one handling in the monitor's ledger.
func (e *Engine) place(g trace.Context, at vtime.Time, demand int64, prefer *gpu.Device, exclude map[int]bool, fn func(*gpu.Reservation) error) (dev *gpu.Device, err error) {
	steps := []map[int]bool{exclude, exclude}
	if devs := e.sched.Devices(); prefer != nil && !exclude[prefer.ID()] && len(devs)-len(exclude) > 1 {
		others := make(map[int]bool, len(devs))
		for _, d := range devs {
			others[d.ID()] = d != prefer
		}
		steps = append([]map[int]bool{others}, steps...)
	}
	for i, ex := range steps {
		if i == len(steps)-1 && (e.fcache == nil || e.fcache.PurgeAll() == 0) {
			break
		}
		if i > 0 {
			e.mon.RecordGPURetry("place", errors.Is(err, gpu.ErrInjected))
		}
		if dev, err = e.sched.Run(g, at, demand, ex, fn); dev != nil {
			break
		}
	}
	return dev, err
}

// fallback records on the monitor and on span sp that the host finishes
// op after its device call failed.
func (e *Engine) fallback(op string, sp trace.Context, err error) {
	e.mon.RecordFallback(op, errors.Is(err, gpu.ErrInjected))
	sp.Annotate(trace.Str("fallback", err.Error()))
}
