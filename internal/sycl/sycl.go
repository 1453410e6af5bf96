// Package sycl is a SYCL-flavoured runtime over the simulated GPU
// substrate: devices, in-order queues, command groups, parallel_for
// kernel launches and events with profiling queries. Kernels are
// kernelir programs; launching one both executes it (the interpreter
// computes real results on host memory) and advances the device's
// virtual timeline according to the hardware model.
//
// The SYnergy API (internal/core) wraps this queue exactly the way the
// paper's synergy::queue wraps sycl::queue.
package sycl

import (
	"errors"
	"fmt"
	"sync"

	"synergy/internal/fault"
	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir"

	// Importing compile installs the closure-threaded executor as the
	// process-wide kernelir.Runner, so queue submissions run compiled.
	_ "synergy/internal/kernelir/compile"
)

// ErrSubmitFailed reports a command group the device rejected at launch
// (the simulated analogue of a failed kernel submission).
var ErrSubmitFailed = errors.New("sycl: kernel submission failed")

// SiteSubmit is this package's fault-injection site, consulted on the
// device thread immediately before each kernel starts (qualified per
// device by the hw.Device label).
const SiteSubmit = "sycl.submit"

func init() {
	fault.RegisterError("sycl.submit_failed", ErrSubmitFailed)
}

// Device represents one compute device (a simulated GPU).
type Device struct {
	hw *hw.Device
}

// NewDevice creates a device from a hardware spec.
func NewDevice(spec *hw.Spec) *Device {
	return &Device{hw: hw.NewDevice(spec)}
}

// WrapDevice adopts an existing virtual device (used when the scheduler
// hands out devices it also manages through NVML/SMI).
func WrapDevice(d *hw.Device) *Device { return &Device{hw: d} }

// Name returns the device name.
func (d *Device) Name() string { return d.hw.Spec().Name }

// HW exposes the underlying virtual device.
func (d *Device) HW() *hw.Device { return d.hw }

// Event tracks one submitted command group, with profiling information
// in device virtual time once complete.
type Event struct {
	mu   sync.Mutex
	rec  hw.KernelRecord
	err  error
	done chan struct{}
}

// Wait blocks until the command group completes and returns its error,
// like wait_and_throw.
func (e *Event) Wait() error {
	<-e.done
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Profiling returns the kernel record (start/end in device virtual time,
// energy, frequency). It blocks until completion.
func (e *Event) Profiling() (hw.KernelRecord, error) {
	<-e.done
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rec, e.err
}

func (e *Event) finish(rec hw.KernelRecord, err error) {
	e.mu.Lock()
	e.rec = rec
	e.err = err
	e.mu.Unlock()
	close(e.done)
}

// Handler is the command-group handler: command groups call ParallelFor
// exactly once to describe the kernel launch.
type Handler struct {
	kernel *kernelir.Kernel
	args   kernelir.Args
	items  int
	width  int // row width for 2-D ranges (0 = 1-D)
	calls  int
}

// ParallelFor records a kernel launch over [0, items) work-items with
// the given argument bindings.
func (h *Handler) ParallelFor(items int, k *kernelir.Kernel, args kernelir.Args) {
	h.calls++
	h.kernel = k
	h.args = args
	h.items = items
}

// ParallelFor2D records a kernel launch over an nx × ny range
// (sycl::range<2>): GlobalID2 in the kernel yields (x, y) without any
// index arithmetic.
func (h *Handler) ParallelFor2D(nx, ny int, k *kernelir.Kernel, args kernelir.Args) {
	h.calls++
	h.kernel = k
	h.args = args
	h.items = nx * ny
	h.width = nx
}

// CommandGroup is the function a Submit executes to build the launch,
// as in sycl::queue::submit.
type CommandGroup func(h *Handler)

// Queue is an in-order device queue: submissions execute asynchronously
// with respect to the host, in submission order on the device.
type Queue struct {
	dev *Device
	// ConstructedAt is the device virtual time when the queue was
	// created (the start of the coarse-grained profiling window, §4.2).
	constructedAt float64

	mu            sync.Mutex
	last          chan struct{} // done channel of the most recent submission
	functionalCap int
	pending       sync.WaitGroup
}

// NewQueue creates an in-order queue on the device.
func NewQueue(dev *Device) *Queue {
	return &Queue{dev: dev, constructedAt: dev.hw.Now()}
}

// Device returns the queue's device.
func (q *Queue) Device() *Device { return q.dev }

// SetFunctionalCap bounds how many work-items the interpreter actually
// computes per launch (0 = all, the default). The virtual-time/energy
// model always accounts for the full launch; when a launch exceeds the
// cap only the first cap work-items produce results on host memory.
//
// This is a simulator-only escape hatch: a virtual GPU is ~10⁴× faster
// than the host interpreter, so launches sized for realistic kernel
// durations cannot be fully interpreted. Tests that verify numerical
// output must use launches within the cap (or leave it at 0).
func (q *Queue) SetFunctionalCap(n int) {
	if n < 0 {
		panic("sycl: negative functional cap")
	}
	q.mu.Lock()
	q.functionalCap = n
	q.mu.Unlock()
}

// ConstructedAt returns the device time at queue construction.
func (q *Queue) ConstructedAt() float64 { return q.constructedAt }

// Submit enqueues a command group and returns its event immediately.
func (q *Queue) Submit(cg CommandGroup) (*Event, error) {
	return q.SubmitObserved(nil, nil, cg)
}

// SubmitObserved enqueues a command group with two device-thread hooks.
// pre runs immediately before the kernel starts — the hook the SYnergy
// layer uses for per-kernel frequency scaling (§4.4: SYCL has no way to
// run instructions just before a kernel starts, so the frequency change
// is implemented in the command-group execution). post runs after the
// kernel (or its failure) and strictly before the event completes.
// Because post runs before Event.Wait can return, observer side effects
// are deterministic: on an in-order queue the next submission's hooks
// cannot interleave with this one's, so a telemetry track appended to
// from the observer sees submissions in submission order.
// rec is the zero KernelRecord when the kernel never occupied the
// device (pre-action or injected submit failure). Either hook may be
// nil.
func (q *Queue) SubmitObserved(pre func() error, post func(rec hw.KernelRecord, err error), cg CommandGroup) (*Event, error) {
	h := &Handler{}
	cg(h)
	if h.calls == 0 {
		return nil, errors.New("sycl: command group did not call ParallelFor")
	}
	if h.calls > 1 {
		return nil, errors.New("sycl: command group called ParallelFor more than once")
	}
	if h.items <= 0 {
		return nil, fmt.Errorf("sycl: kernel %q launched with %d work-items", h.kernel.Name, h.items)
	}
	wl, err := features.KernelWorkload(h.kernel, int64(h.items))
	if err != nil {
		return nil, err
	}

	ev := &Event{done: make(chan struct{})}
	q.mu.Lock()
	prev := q.last
	q.last = ev.done
	execItems := h.items
	if q.functionalCap > 0 && execItems > q.functionalCap {
		execItems = q.functionalCap
	}
	q.pending.Add(1)
	q.mu.Unlock()

	go func() {
		defer q.pending.Done()
		// Every exit path reports through the observer (still on the
		// device thread) before the event completes.
		done := func(rec hw.KernelRecord, err error) {
			if post != nil {
				post(rec, err)
			}
			ev.finish(rec, err)
		}
		if prev != nil {
			<-prev // in-order queue: wait for the previous command
		}
		if pre != nil {
			if err := pre(); err != nil {
				done(hw.KernelRecord{}, err)
				return
			}
		}
		// Injected submit faults fire here, after the pre-action (the
		// frequency change) and before the kernel occupies the device.
		site := SiteSubmit + ":" + q.dev.hw.Label()
		if delay, err := q.dev.hw.FaultInjector().Check(site); delay > 0 || err != nil {
			q.dev.hw.AdvanceIdle(delay)
			if err != nil {
				done(hw.KernelRecord{}, fmt.Errorf("sycl: submitting %q: %w", h.kernel.Name, err))
				return
			}
		}
		// Advance the virtual timeline per the hardware model...
		rec, err := q.dev.hw.ExecuteKernel(wl)
		if err != nil {
			done(hw.KernelRecord{}, err)
			return
		}
		// ...and compute the actual results on host memory.
		if err := kernelir.ExecuteGrid(h.kernel, h.args, execItems, h.width); err != nil {
			done(rec, err)
			return
		}
		done(rec, nil)
	}()
	return ev, nil
}

// Probe dry-runs a command group to discover the kernel and launch size
// it would submit, without executing anything. The SYnergy layer uses
// this to run model inference (frequency prediction) before submission.
func Probe(cg CommandGroup) (*kernelir.Kernel, int, error) {
	h := &Handler{}
	cg(h)
	if h.calls != 1 {
		return nil, 0, errors.New("sycl: command group must call ParallelFor exactly once")
	}
	return h.kernel, h.items, nil
}

// Wait blocks until every submitted command group has completed.
func (q *Queue) Wait() {
	// Each submission completes its event before its goroutine's
	// deferred Done, so the WaitGroup alone covers every submission.
	q.pending.Wait()
}
