package hw

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"synergy/internal/fault"
	"synergy/internal/telemetry"
)

// Segment is one interval of the device timeline with constant power.
type Segment struct {
	Start, End float64 // seconds of virtual time
	PowerW     float64
	Label      string
}

// KernelRecord describes one executed kernel on the device timeline.
type KernelRecord struct {
	Name        string
	CoreMHz     int
	Start, End  float64
	EnergyJ     float64
	AvgPowerW   float64
	Measurement Measurement
}

// Device is a virtual GPU: it owns a virtual-time timeline on which
// kernels execute according to the analytic model, integrates board
// energy (busy and idle), and exposes the clock controls and the
// vendor-call fault path that the management-library bindings
// (internal/nvml, internal/rocmsmi, internal/rapl) wrap.
//
// A Device is safe for concurrent use; operations are serialised, which
// mirrors a real GPU executing one compute kernel at a time per queue.
type Device struct {
	spec *Spec

	mu          sync.Mutex
	now         float64
	busy        []Segment // busy (non-idle-power) segments, ascending
	appClockMHz int       // 0 = auto (no application clock pinned)
	kernels     int64
	clockSets   int64
	driverFlags map[string]bool
	label       string
	injector    *fault.Injector
	telemetry   *telemetry.Registry
}

// NewDevice creates a virtual device with the driver-default clocks.
func NewDevice(spec *Spec) *Device {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &Device{spec: spec, appClockMHz: spec.DefaultCoreMHz}
}

// Spec returns the device descriptor.
func (d *Device) Spec() *Spec { return d.spec }

// SetLabel gives the device a stable identity ("node0/gpu1") used to
// qualify fault-injection sites; without one, sites fall back to the
// library-local device index, which is only unique within one node.
func (d *Device) SetLabel(s string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.label = s
}

// Label returns the device's identity label ("" when never set).
func (d *Device) Label() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.label
}

// SetFaultInjector attaches a fault injector to the device. Like driver
// flags, the attachment is device state: every management-library
// session (NVML, SMI) and runtime queue opened on the device consults
// it. A nil injector detaches.
func (d *Device) SetFaultInjector(in *fault.Injector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.injector = in
}

// FaultInjector returns the attached injector (nil when none; a nil
// injector's Check is a no-op, so callers need no guard).
func (d *Device) FaultInjector() *fault.Injector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.injector
}

// SetTelemetry attaches a telemetry registry to the device. Like the
// fault injector, the attachment is device state: the runtime queue and
// every management-library session opened on the device report into it
// without any signature changes along the way. A nil registry detaches.
func (d *Device) SetTelemetry(r *telemetry.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.telemetry = r
}

// Telemetry returns the attached registry (nil when none; every method
// on a nil registry is a no-op, so callers need no guard).
func (d *Device) Telemetry() *telemetry.Registry {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.telemetry
}

// VendorCall is one management-library driver call at a fault site
// "<lib>.<call>" (nvml.set_app_clocks, rocmsmi.set_clock_level...).
// The site is qualified by the device label, or by "gpu<idx>" (the
// library-local device index) when unlabelled, and checked against the
// attached injector. Injected latency is virtual driver-call latency: it
// stalls the timeline like the documented clock-set overhead does. With
// telemetry attached the call increments synergy_vendor_calls_total, and
// synergy_vendor_faults_total on an injected error, so the call counter
// equals the injector's CallCount for the site.
func (d *Device) VendorCall(lib, site string, idx int) error {
	d.mu.Lock()
	device, in, tel := d.label, d.injector, d.telemetry
	d.mu.Unlock()
	if device == "" {
		device = "gpu" + strconv.Itoa(idx)
	}
	delay, err := in.Check(site + ":" + device)
	if tel != nil {
		call := strings.TrimPrefix(site, lib+".")
		tel.Counter("synergy_vendor_calls_total", "lib", lib, "call", call, "device", device).Inc()
		if err != nil {
			tel.Counter("synergy_vendor_faults_total", "lib", lib, "call", call, "device", device).Inc()
		}
	}
	if delay > 0 {
		d.AdvanceIdle(delay)
	}
	return err
}

// ResetDriverFlags clears all persistent driver state — what a node
// reboot does to API-restriction bits and similar driver-held flags.
func (d *Device) ResetDriverFlags() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.driverFlags = nil
}

// Now returns the current virtual time in seconds.
func (d *Device) Now() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.now
}

// AppClockMHz returns the pinned application clock, or 0 when the device
// auto-scales (no application clock set).
func (d *Device) AppClockMHz() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appClockMHz
}

// KernelCount returns the number of kernels executed so far.
func (d *Device) KernelCount() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.kernels
}

// ClockSetCount returns the number of application-clock changes so far.
func (d *Device) ClockSetCount() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clockSets
}

// SetDriverFlag stores a named piece of persistent driver state on the
// device (for example NVML API-restriction bits). Driver state survives
// across management-library sessions — the root cause of the
// "configuration left behind by the previous job" hazard that the SLURM
// plugin's epilogue must clean up (§7.1).
func (d *Device) SetDriverFlag(name string, v bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.driverFlags == nil {
		d.driverFlags = map[string]bool{}
	}
	d.driverFlags[name] = v
}

// DriverFlag reads a named driver flag (false when never set).
func (d *Device) DriverFlag(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.driverFlags[name]
}

// SetAppClock pins the application clock to mhz. The change costs
// ClockSetOverheadSec of idle time on the timeline — the overhead the
// paper measures growing with the number of submitted kernels (§4.4).
func (d *Device) SetAppClock(mhz int) error {
	if !d.spec.SupportsCoreFreq(mhz) {
		return fmt.Errorf("hw: %s does not support core frequency %d MHz", d.spec.Name, mhz)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.appClockMHz == mhz {
		return nil // drivers skip redundant sets
	}
	d.now += d.spec.ClockSetOverheadSec
	d.appClockMHz = mhz
	d.clockSets++
	return nil
}

// ResetAppClock restores the driver default (or auto for devices with no
// default), also costing one clock-set overhead if a change occurs.
func (d *Device) ResetAppClock() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.appClockMHz != d.spec.DefaultCoreMHz {
		d.now += d.spec.ClockSetOverheadSec
		d.appClockMHz = d.spec.DefaultCoreMHz
		d.clockSets++
	}
}

// effectiveCoreLocked is the frequency the next kernel will run at: the
// pinned application clock, or — in auto mode — the maximum boost state
// (the MI100 behaviour the paper describes: the driver scales to the
// workload, and compute kernels boost to the top DPM state).
func (d *Device) effectiveCoreLocked() int {
	if d.appClockMHz != 0 {
		return d.appClockMHz
	}
	return d.spec.MaxCoreMHz()
}

// ExecuteKernel runs the workload at the effective clock, advancing the
// timeline and recording a busy segment.
func (d *Device) ExecuteKernel(w Workload) (KernelRecord, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	freq := d.effectiveCoreLocked()
	m, err := d.spec.Evaluate(w, freq)
	if err != nil {
		return KernelRecord{}, err
	}
	start := d.now
	end := start + m.TimeSec
	d.busy = append(d.busy, Segment{Start: start, End: end, PowerW: m.PowerW, Label: w.Name})
	d.now = end
	d.kernels++
	return KernelRecord{
		Name:        w.Name,
		CoreMHz:     freq,
		Start:       start,
		End:         end,
		EnergyJ:     m.EnergyJ,
		AvgPowerW:   m.PowerW,
		Measurement: m,
	}, nil
}

// AdvanceIdle moves the timeline forward by dt seconds at idle power
// (host gaps, MPI communication, scheduler prologue work...).
func (d *Device) AdvanceIdle(dt float64) {
	if dt < 0 {
		panic("hw: negative idle advance")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.now += dt
}

// powerAtLocked returns the instantaneous board power at virtual time t.
// Outside any busy segment the board draws idle power.
func (d *Device) powerAtLocked(t float64) float64 {
	i := sort.Search(len(d.busy), func(i int) bool { return d.busy[i].End > t })
	if i < len(d.busy) && d.busy[i].Start <= t && t < d.busy[i].End {
		return d.busy[i].PowerW
	}
	return d.spec.IdlePowerW
}

// EnergyBetween integrates board power exactly over [t0, t1).
func (d *Device) EnergyBetween(t0, t1 float64) float64 {
	if t1 < t0 {
		t0, t1 = t1, t0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.spec.IdlePowerW * (t1 - t0)
	i := sort.Search(len(d.busy), func(i int) bool { return d.busy[i].End > t0 })
	for ; i < len(d.busy) && d.busy[i].Start < t1; i++ {
		s := d.busy[i]
		lo, hi := s.Start, s.End
		if lo < t0 {
			lo = t0
		}
		if hi > t1 {
			hi = t1
		}
		if hi > lo {
			e += (s.PowerW - d.spec.IdlePowerW) * (hi - lo)
		}
	}
	return e
}

// SampledEnergyBetween estimates the energy over [t0, t1) the way the
// vendor libraries do it: the instantaneous power is polled on a fixed
// global grid with the given sampling period and integrated with a
// left-Riemann sum. For intervals shorter than the sampling period this
// estimate is badly wrong — the fine-grained-profiling limitation the
// paper discusses in §4.4.
func (d *Device) SampledEnergyBetween(t0, t1, period float64) float64 {
	if period <= 0 {
		panic("hw: sampling period must be positive")
	}
	if t1 < t0 {
		t0, t1 = t1, t0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// First sample tick at or after t0 on the global grid.
	k := float64(int64(t0 / period))
	if k*period < t0 {
		k++
	}
	e := 0.0
	for t := k * period; t < t1; t += period {
		e += d.powerAtLocked(t) * period
	}
	return e
}

// Segments returns a copy of the busy segments (for tooling and tests).
func (d *Device) Segments() []Segment {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Segment, len(d.busy))
	copy(out, d.busy)
	return out
}
