// Package core implements the SYnergy programming interface (§4): the
// synergy queue that extends the SYCL queue with energy capabilities —
// per-kernel and per-device energy profiling, frequency scaling at queue
// construction, per-submission frequency overrides, and target-annotated
// kernel submission (MIN_EDP, MIN_ED2P, ES_x, PL_x) backed by the
// trained energy models.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"synergy/internal/governor"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/metrics"
	"synergy/internal/power"
	"synergy/internal/resilience"
	"synergy/internal/sycl"
	"synergy/internal/telemetry"
)

// DegradationEvent records a submission that ran at current clocks
// because the vendor layer denied the frequency change (no privilege
// window, §7): the kernel still executes correctly — only the energy
// saving is forfeited.
type DegradationEvent struct {
	// Kernel is the kernel name ("" when the command group has none).
	Kernel string
	// WantMHz is the core frequency the runtime tried to pin.
	WantMHz int
	// Reason is the vendor error text.
	Reason string
	// TimeSec is the device virtual time when the denial was observed.
	TimeSec float64
}

// FrequencyAdvisor predicts the core frequency that optimises a target
// for a kernel — the prediction phase of §6.2. internal/model provides
// the machine-learning implementation; tests may plug in stubs.
type FrequencyAdvisor interface {
	AdviseCoreFreq(k *kernelir.Kernel, items int, target metrics.Target) (int, error)
}

// Queue is the synergy::queue equivalent: a SYCL queue plus energy
// capabilities, built on the vendor-neutral power.Manager.
type Queue struct {
	q  *sycl.Queue
	pm power.Manager

	mu         sync.Mutex
	pinned     int // core MHz pinned at construction (0 = none)
	advisor    FrequencyAdvisor
	breaker    *resilience.Breaker
	spanParent *telemetry.SpanHandle
	degr       []DegradationEvent
	prof       profiler
}

// NewQueue builds a conventional queue: kernels run at the device's
// current (default) clocks.
func NewQueue(dev *sycl.Device, pm power.Manager) *Queue {
	return &Queue{q: sycl.NewQueue(dev), pm: pm}
}

// NewQueueWithFreq builds a queue with a fixed frequency configuration
// (Listing 2): every kernel submitted without an override runs at the
// given memory and core frequency. Since HBM devices cannot scale the
// memory clock, memMHz must match the device's fixed memory frequency
// (or be 0 to keep it).
func NewQueueWithFreq(dev *sycl.Device, pm power.Manager, memMHz, coreMHz int) (*Queue, error) {
	if memMHz != 0 && memMHz != pm.MemFreqMHz() {
		return nil, fmt.Errorf("core: memory frequency %d MHz not available (device runs HBM at %d MHz)",
			memMHz, pm.MemFreqMHz())
	}
	if !supported(pm, coreMHz) {
		return nil, fmt.Errorf("core: core frequency %d MHz not supported by %s", coreMHz, pm.DeviceName())
	}
	return &Queue{q: sycl.NewQueue(dev), pm: pm, pinned: coreMHz}, nil
}

func supported(pm power.Manager, coreMHz int) bool {
	for _, f := range pm.SupportedCoreFreqs() {
		if f == coreMHz {
			return true
		}
	}
	return false
}

// SetAdvisor installs the model-backed frequency advisor used by
// target-annotated submissions.
func (q *Queue) SetAdvisor(a FrequencyAdvisor) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.advisor = a
}

// SetBreaker attaches this device's circuit breaker from the health
// registry: pre-kernel clock changes consult it before spending the
// retry budget, and while the device is unhealthy submissions degrade
// to current clocks with a recorded DegradationEvent. A nil breaker
// (the default) disables the guard.
func (q *Queue) SetBreaker(br *resilience.Breaker) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.breaker = br
}

// SetSpanParent links this queue's kernel spans under a parent span
// (the rank span of the job → rank → kernel hierarchy). Telemetry
// itself is device state: the queue reports into the registry attached
// to its hw.Device (hw.Device.SetTelemetry), if any.
func (q *Queue) SetSpanParent(h *telemetry.SpanHandle) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.spanParent = h
}

// Degradations returns the submissions that ran at current clocks
// because frequency control was denied, in submission order.
func (q *Queue) Degradations() []DegradationEvent {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]DegradationEvent, len(q.degr))
	copy(out, q.degr)
	return out
}

// Device returns the underlying SYCL device.
func (q *Queue) Device() *sycl.Device { return q.q.Device() }

// Submit enqueues a command group at the queue's frequency configuration
// (the pinned frequency, or the device default when unpinned).
func (q *Queue) Submit(cg sycl.CommandGroup) (*sycl.Event, error) {
	q.mu.Lock()
	pinned := q.pinned
	q.mu.Unlock()
	return q.submitAt(pinned, cg)
}

// SubmitWithFreq enqueues a command group with a per-kernel frequency
// override (Listing 4). The frequency is set on the device just before
// the kernel starts.
func (q *Queue) SubmitWithFreq(memMHz, coreMHz int, cg sycl.CommandGroup) (*sycl.Event, error) {
	if memMHz != 0 && memMHz != q.pm.MemFreqMHz() {
		return nil, fmt.Errorf("core: memory frequency %d MHz not available", memMHz)
	}
	if !supported(q.pm, coreMHz) {
		return nil, fmt.Errorf("core: core frequency %d MHz not supported by %s", coreMHz, q.pm.DeviceName())
	}
	return q.submitAt(coreMHz, cg)
}

// SubmitWithTarget enqueues a command group annotated with an energy
// target (Listing 3): the advisor predicts the optimal frequency for
// this kernel and target, and the kernel runs there.
func (q *Queue) SubmitWithTarget(target metrics.Target, cg sycl.CommandGroup) (*sycl.Event, error) {
	if err := target.Validate(); err != nil {
		return nil, err
	}
	q.mu.Lock()
	advisor := q.advisor
	q.mu.Unlock()
	if advisor == nil {
		return nil, errors.New("core: no frequency advisor installed (train models first, see internal/model)")
	}
	k, items, err := sycl.Probe(cg)
	if err != nil {
		return nil, err
	}
	freq, err := advisor.AdviseCoreFreq(k, items, target)
	if err != nil {
		return nil, fmt.Errorf("core: advising %s for kernel %q: %w", target, k.Name, err)
	}
	if !supported(q.pm, freq) {
		return nil, fmt.Errorf("core: advisor returned unsupported frequency %d MHz", freq)
	}
	return q.submitAt(freq, cg)
}

// submitAt submits with an optional pre-kernel clock change (coreMHz 0
// means no change): the set happens on the device thread in submission
// order, costing the vendor library's clock-set overhead (§4.4).
// Transient clock-set failures are retried with bounded backoff; a
// permission denial degrades gracefully — the kernel runs at current
// clocks and the denial is recorded.
//
// When the device carries a telemetry registry the submission is fully
// instrumented: per-kernel counters and virtual-time histograms
// (synergy_kernels_total, synergy_kernel_seconds, synergy_kernel_energy_joules,
// synergy_queue_wait_seconds, synergy_degradations_total, plus the
// governor's clock-set families), and one kernel span per submission on
// the device-label track with queue-wait / clock-set / execute child
// spans. Both hooks run on the device thread, so span order inherits
// the queue's serialisation and identical seeds yield identical tracks.
func (q *Queue) submitAt(coreMHz int, cg sycl.CommandGroup) (*sycl.Event, error) {
	q.mu.Lock()
	br := q.breaker
	parent := q.spanParent
	q.mu.Unlock()
	pol := governor.DefaultRetryPolicy()
	hwDev := q.q.Device().HW()
	tel := hwDev.Telemetry()
	lbl := hwDev.Label()
	if lbl == "" {
		lbl = q.pm.DeviceName()
	}
	enqT := q.pm.DeviceNow()
	var preT0, preT1 float64
	pre := func() error {
		preT0 = q.pm.DeviceNow()
		preT1 = preT0
		if coreMHz == 0 || q.pm.CurrentCoreFreq() == coreMHz {
			return nil
		}
		res := governor.ApplyFrequencyMetered(q.pm, coreMHz, pol, br, tel, lbl)
		preT1 = q.pm.DeviceNow()
		if res.Applied {
			return nil
		}
		if res.Degraded {
			name := ""
			if k, _, perr := sycl.Probe(cg); perr == nil {
				name = k.Name
			}
			tel.Counter("synergy_degradations_total", "device", lbl).Inc()
			q.mu.Lock()
			q.degr = append(q.degr, DegradationEvent{
				Kernel:  name,
				WantMHz: coreMHz,
				Reason:  res.Err.Error(),
				TimeSec: q.pm.DeviceNow(),
			})
			q.mu.Unlock()
			return nil // run at current clocks; energy saving forfeited
		}
		return res.Err
	}
	var post func(rec hw.KernelRecord, err error)
	if tel != nil {
		post = func(rec hw.KernelRecord, err error) {
			if !(rec.End > rec.Start) {
				return // the kernel never occupied the device
			}
			tel.Counter("synergy_kernels_total", "device", lbl).Inc()
			tel.Histogram("synergy_kernel_seconds", telemetry.TimeBuckets, "device", lbl).
				ObserveAt(rec.End-rec.Start, rec.End)
			tel.Histogram("synergy_kernel_energy_joules", telemetry.EnergyBuckets, "device", lbl).
				ObserveAt(rec.EnergyJ, rec.End)
			tel.Histogram("synergy_queue_wait_seconds", telemetry.TimeBuckets, "device", lbl).
				ObserveAt(preT0-enqT, rec.End)
			ks := tel.StartSpan(lbl, rec.Name, "kernel", enqT, parent)
			if preT0 > enqT {
				tel.RecordSpan(lbl, "queue-wait", "queue-wait", enqT, preT0, ks)
			}
			if preT1 > preT0 {
				tel.RecordSpan(lbl, "clock-set", "clock-set", preT0, preT1, ks)
			}
			tel.RecordSpan(lbl, "execute", "execute", rec.Start, rec.End, ks)
			ks.End(rec.End)
		}
	}
	ev, err := q.q.SubmitObserved(pre, post, cg)
	if err == nil {
		q.observe(ev)
	}
	return ev, err
}

// Wait blocks until all submitted work completes.
func (q *Queue) Wait() { q.q.Wait() }

// WaitContext blocks until all submitted work completes or the context
// is canceled.
func (q *Queue) WaitContext(ctx context.Context) error { return q.q.WaitContext(ctx) }

// SubmitContext is Submit with cancellation: a canceled context fails
// fast before enqueueing (already-enqueued work always completes — the
// simulated device never abandons a running kernel).
func (q *Queue) SubmitContext(ctx context.Context, cg sycl.CommandGroup) (*sycl.Event, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return q.Submit(cg)
}

// SubmitWithFreqContext is SubmitWithFreq with cancellation.
func (q *Queue) SubmitWithFreqContext(ctx context.Context, memMHz, coreMHz int, cg sycl.CommandGroup) (*sycl.Event, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return q.SubmitWithFreq(memMHz, coreMHz, cg)
}

// SetFunctionalCap bounds per-launch interpreted work-items (see
// sycl.Queue.SetFunctionalCap); the energy/time model is unaffected.
func (q *Queue) SetFunctionalCap(n int) { q.q.SetFunctionalCap(n) }

// KernelEnergyConsumption returns the fine-grained energy of one kernel
// (§4.2): the energy an asynchronous polling thread accumulates between
// the kernel's start and end events. Accuracy is limited by the vendor
// sampling period — kernels much shorter than ~15 ms (NVML) profile
// poorly, as the paper notes in §4.4.
func (q *Queue) KernelEnergyConsumption(ev *sycl.Event) (float64, error) {
	rec, err := ev.Profiling()
	if err != nil {
		return 0, err
	}
	return q.pm.SampledEnergy(rec.Start, rec.End), nil
}

// DeviceEnergyConsumption returns the coarse-grained energy (§4.2): the
// whole-device energy, idle periods included, accumulated in the window
// that opened when the queue was constructed.
func (q *Queue) DeviceEnergyConsumption() float64 {
	return q.pm.SampledEnergy(q.q.ConstructedAt(), q.pm.DeviceNow())
}

// ResetFrequency restores the driver-default clocks (used by tools and
// by the scheduler epilogue path when running single-node).
func (q *Queue) ResetFrequency() error {
	q.q.Wait()
	return q.pm.ResetCoreFreq()
}
