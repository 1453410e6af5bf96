// Package rocmsmi simulates the AMD ROCm System Management Interface
// calls the SYnergy runtime makes on AMD GPUs: the DPM (dynamic power
// management) frequency levels, pinning one of them or returning to the
// driver's auto performance level, and sampled energy at the fine
// resolution of the CDNA energy accumulator. Unlike NVIDIA boards, the
// MI100 exposes no default application clock — the driver auto-scales
// with the workload (§2.1).
package rocmsmi

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"synergy/internal/fault"
	"synergy/internal/hw"
)

// SamplingPeriodSec is the telemetry period of the SMU energy
// accumulator; CDNA boards resolve energy much finer than NVML's 15 ms
// power polling.
const SamplingPeriodSec = 0.001

// Common SMI-style errors.
var (
	ErrUninitialized = errors.New("rocmsmi: not initialized")
	ErrInvalidArg    = errors.New("rocmsmi: invalid argument")
	ErrNoPermission  = errors.New("rocmsmi: permission denied")
	// ErrTimeout is the SMU failing to acknowledge a request in time —
	// the transient failure mode of DPM writes under load.
	ErrTimeout = errors.New("rocmsmi: operation timed out")
)

// Fault-injection sites exposed by this package (qualified per device by
// the hw.Device label, or "gpu<i>" when unlabelled).
const (
	SiteSetClockLevel = "rocmsmi.set_clock_level"
	SiteSetPerfAuto   = "rocmsmi.set_perf_auto"
)

func init() {
	fault.RegisterError("rocmsmi.no_permission", ErrNoPermission)
	fault.RegisterError("rocmsmi.timeout", ErrTimeout)
}

// User identifies callers of state-changing APIs; writing to the SMI
// sysfs interface requires root on production systems.
type User struct {
	Name string
	Root bool
}

// Root is the superuser identity.
var Root = User{Name: "root", Root: true}

// Library is a simulated SMI bound to a set of AMD devices.
type Library struct {
	mu      sync.Mutex
	devices []*hw.Device
	inited  bool
}

// New creates a library managing the given AMD devices.
func New(devices ...*hw.Device) (*Library, error) {
	for _, d := range devices {
		if d.Spec().Vendor != hw.AMD {
			return nil, fmt.Errorf("rocmsmi: device %s is not an AMD device", d.Spec().Name)
		}
	}
	return &Library{devices: devices}, nil
}

// Init initialises the library (rsmi_init).
func (l *Library) Init() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inited {
		return errors.New("rocmsmi: already initialized")
	}
	l.inited = true
	return nil
}

// Device is a handle to one board.
type Device struct {
	lib *Library
	idx int
}

// DeviceByIndex returns a handle for device i.
func (l *Library) DeviceByIndex(i int) (*Device, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.inited {
		return nil, ErrUninitialized
	}
	if i < 0 || i >= len(l.devices) {
		return nil, fmt.Errorf("%w: device index %d", ErrInvalidArg, i)
	}
	return &Device{lib: l, idx: i}, nil
}

func (d *Device) hw() *hw.Device { return d.lib.devices[d.idx] }

func (d *Device) checkInit() error {
	d.lib.mu.Lock()
	defer d.lib.mu.Unlock()
	if !d.lib.inited {
		return ErrUninitialized
	}
	return nil
}

// ClockLevels returns the DPM core frequency table (ascending MHz).
func (d *Device) ClockLevels() ([]int, error) {
	if err := d.checkInit(); err != nil {
		return nil, err
	}
	return slices.Clone(d.hw().Spec().CoreFreqsMHz), nil
}

// SetPerfLevelAuto returns the device to driver-managed DPM selection.
func (d *Device) SetPerfLevelAuto(u User) error {
	if err := d.checkInit(); err != nil {
		return err
	}
	if err := d.hw().VendorCall("rocmsmi", SiteSetPerfAuto, d.idx); err != nil {
		return fmt.Errorf("setting auto perf level: %w", err)
	}
	if !u.Root {
		return fmt.Errorf("%w: user %q may not change the performance level", ErrNoPermission, u.Name)
	}
	d.hw().ResetAppClock()
	return nil
}

// SetClockLevel pins the core clock to the DPM state with the given
// index (rsmi_dev_gpu_clk_freq_set), switching to manual perf level.
func (d *Device) SetClockLevel(u User, level int) error {
	if err := d.checkInit(); err != nil {
		return err
	}
	if err := d.hw().VendorCall("rocmsmi", SiteSetClockLevel, d.idx); err != nil {
		return fmt.Errorf("setting DPM level: %w", err)
	}
	if !u.Root {
		return fmt.Errorf("%w: user %q may not set clock levels", ErrNoPermission, u.Name)
	}
	spec := d.hw().Spec()
	if level < 0 || level >= len(spec.CoreFreqsMHz) {
		return fmt.Errorf("%w: DPM level %d out of range [0, %d)", ErrInvalidArg, level, len(spec.CoreFreqsMHz))
	}
	return d.hw().SetAppClock(spec.CoreFreqsMHz[level])
}

// SampledEnergyBetween integrates the sampled power trace over a window.
func (d *Device) SampledEnergyBetween(t0, t1 float64) (float64, error) {
	if err := d.checkInit(); err != nil {
		return 0, err
	}
	return d.hw().SampledEnergyBetween(t0, t1, SamplingPeriodSec), nil
}
