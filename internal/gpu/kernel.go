package gpu

import (
	"blugpu/internal/fault"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// KernelResult reports a finished kernel execution. Err is an injected
// kernel fault, which fires before the body runs.
type KernelResult struct {
	Name    string
	Modeled vtime.Duration
	Err     error
}

// RunKernel admits and executes one kernel call. The body does the
// kernel's functional work on the calling goroutine (fanning out over the
// host's workers itself if it wants to) and returns the modeled device
// time from the kernel's cost formula. RunKernel adds the kernel-launch
// overhead, updates device counters, and reports the event to the
// monitor sink.
func (d *Device) RunKernel(name string, body func() vtime.Duration) KernelResult {
	return d.RunKernelSpan(name, 0, body)
}

// RunKernelSpan is RunKernel with the caller's tracer span attached:
// the kernel event (and any injected kernel fault) is reported under
// sp, so the tracer can attribute device time to the query operator
// that launched the kernel. sp 0 means untraced. The call counts as
// outstanding — what the scheduler balances on — until the body returns
// or panics.
func (d *Device) RunKernelSpan(name string, sp trace.SpanID, body func() vtime.Duration) KernelResult {
	d.mu.Lock()
	d.outstanding++
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.outstanding--
		d.kernels++
		d.mu.Unlock()
	}()

	if err := d.injectFault(fault.Kernel, sp); err != nil {
		return KernelResult{Name: name, Err: err}
	}

	modeled := body() + d.modelRef().GPUKernelLaunch
	d.emit(Event{Kind: EventKernel, Name: name, Modeled: modeled, Span: sp})
	return KernelResult{Name: name, Modeled: modeled}
}
