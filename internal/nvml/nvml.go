// Package nvml simulates the NVIDIA Management Library calls that the
// SYnergy runtime and the SLURM nvgpufreq plugin make: device handles,
// the supported-clock table, application clocks, sampled energy with the
// ~15 ms power-polling granularity of real boards, and the per-API
// permission model (nvmlDeviceSetAPIRestriction) that the paper's
// privilege-raising scheme (§7) is built on.
package nvml

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"synergy/internal/fault"
	"synergy/internal/hw"
)

// SamplingPeriodSec is the power-telemetry sampling period. Burtscher et
// al. (cited by the paper in §4.4) measured ~15 ms intervals on data
// center boards.
const SamplingPeriodSec = 0.015

// Common NVML-style errors.
var (
	ErrUninitialized  = errors.New("nvml: library not initialized")
	ErrInvalidArg     = errors.New("nvml: invalid argument")
	ErrNoPermission   = errors.New("nvml: insufficient permissions")
	ErrAlreadyInitial = errors.New("nvml: already initialized")
	// ErrTimeout is the driver failing to complete a call in time — the
	// transient failure mode clock-set calls exhibit under load.
	ErrTimeout = errors.New("nvml: operation timed out")
)

// ErrNotPermitted is the NVML_ERROR_NOT_PERMITTED alias for the
// insufficient-permissions sentinel (same errors.Is identity).
var ErrNotPermitted = ErrNoPermission

// Fault-injection sites exposed by this package (qualified per device by
// the hw.Device label, or "gpu<i>" when unlabelled).
const (
	SiteSetAppClocks      = "nvml.set_app_clocks"
	SiteResetAppClocks    = "nvml.reset_app_clocks"
	SiteSetAPIRestriction = "nvml.set_api_restriction"
)

func init() {
	fault.RegisterError("nvml.not_permitted", ErrNoPermission)
	fault.RegisterError("nvml.timeout", ErrTimeout)
}

// RestrictedAPI identifies an API class whose permission requirements can
// be toggled per device (nvmlDeviceSetAPIRestriction).
type RestrictedAPI int

const (
	// APISetApplicationClocks guards application-clock changes.
	APISetApplicationClocks RestrictedAPI = iota
)

// User identifies the caller of a state-changing API. On a production
// system state-changing NVML calls are restricted to root unless the
// restriction has been lifted for the device.
type User struct {
	Name string
	Root bool
}

// Root is the superuser identity used by the SLURM plugin hooks.
var Root = User{Name: "root", Root: true}

// Library is a simulated NVML instance bound to a set of virtual NVIDIA
// devices. It is safe for concurrent use. API-restriction state is
// driver state: it lives on the device and is visible to every library
// session (which is why a job scheduler must clean it up, §7.1).
type Library struct {
	mu      sync.Mutex
	devices []*hw.Device
	inited  bool
}

// flagName maps a restrictable API to its persistent driver flag. The
// flag stores "unrestricted" so that the zero value (never set) is the
// production default: restricted.
func flagName(api RestrictedAPI) string {
	if api == APISetApplicationClocks {
		return "nvml.unrestricted.appclocks"
	}
	return fmt.Sprintf("nvml.unrestricted.api%d", int(api))
}

// New creates a library managing the given devices. Every device must be
// an NVIDIA device.
func New(devices ...*hw.Device) (*Library, error) {
	for _, d := range devices {
		if d.Spec().Vendor != hw.NVIDIA {
			return nil, fmt.Errorf("nvml: device %s is not an NVIDIA device", d.Spec().Name)
		}
	}
	return &Library{devices: devices}, nil
}

// Init initialises the library (nvmlInit).
func (l *Library) Init() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inited {
		return ErrAlreadyInitial
	}
	l.inited = true
	return nil
}

// Shutdown tears the library down (nvmlShutdown).
func (l *Library) Shutdown() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.inited {
		return ErrUninitialized
	}
	l.inited = false
	return nil
}

// Device is a handle to one board (nvmlDevice_t).
type Device struct {
	lib *Library
	idx int
}

// DeviceGetHandleByIndex returns a handle for device i.
func (l *Library) DeviceGetHandleByIndex(i int) (*Device, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.inited {
		return nil, ErrUninitialized
	}
	if i < 0 || i >= len(l.devices) {
		return nil, fmt.Errorf("%w: device index %d out of range", ErrInvalidArg, i)
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

// GetSupportedGraphicsClocks lists the core clocks available at the given
// memory clock.
func (d *Device) GetSupportedGraphicsClocks(memMHz int) ([]int, error) {
	if err := d.checkInit(); err != nil {
		return nil, err
	}
	spec := d.hw().Spec()
	if memMHz != spec.MemFreqMHz {
		return nil, fmt.Errorf("%w: memory clock %d MHz not supported", ErrInvalidArg, memMHz)
	}
	return slices.Clone(spec.CoreFreqsMHz), nil
}

// apiAllowed reports whether user may invoke the given restricted API on
// this device.
func (d *Device) apiAllowed(u User, api RestrictedAPI) bool {
	if u.Root {
		return true
	}
	return d.hw().DriverFlag(flagName(api))
}

// SetApplicationsClocks pins the application clocks
// (nvmlDeviceSetApplicationsClocks). The memory clock must match the
// board's fixed HBM clock; the core clock must appear in the supported
// table. Callers need root unless the API restriction has been lifted.
func (d *Device) SetApplicationsClocks(u User, memMHz, coreMHz int) error {
	if err := d.checkInit(); err != nil {
		return err
	}
	if err := d.hw().VendorCall("nvml", SiteSetAppClocks, d.idx); err != nil {
		return fmt.Errorf("setting application clocks: %w", err)
	}
	if !d.apiAllowed(u, APISetApplicationClocks) {
		return fmt.Errorf("%w: user %q may not set application clocks", ErrNoPermission, u.Name)
	}
	spec := d.hw().Spec()
	if memMHz != spec.MemFreqMHz {
		return fmt.Errorf("%w: memory clock %d MHz (board supports only %d)", ErrInvalidArg, memMHz, spec.MemFreqMHz)
	}
	if !spec.SupportsCoreFreq(coreMHz) {
		return fmt.Errorf("%w: core clock %d MHz not in supported table", ErrInvalidArg, coreMHz)
	}
	return d.hw().SetAppClock(coreMHz)
}

// ResetApplicationsClocks restores the driver-default application clocks.
func (d *Device) ResetApplicationsClocks(u User) error {
	if err := d.checkInit(); err != nil {
		return err
	}
	if err := d.hw().VendorCall("nvml", SiteResetAppClocks, d.idx); err != nil {
		return fmt.Errorf("resetting application clocks: %w", err)
	}
	if !d.apiAllowed(u, APISetApplicationClocks) {
		return fmt.Errorf("%w: user %q may not reset application clocks", ErrNoPermission, u.Name)
	}
	d.hw().ResetAppClock()
	return nil
}

// SetAPIRestriction toggles whether non-root users may invoke the given
// API on this device (nvmlDeviceSetAPIRestriction). Root only — this is
// the call the paper's SLURM plugin uses to temporarily lower privilege
// requirements for exclusive jobs (§7.1).
func (d *Device) SetAPIRestriction(u User, api RestrictedAPI, restricted bool) error {
	if err := d.checkInit(); err != nil {
		return err
	}
	if err := d.hw().VendorCall("nvml", SiteSetAPIRestriction, d.idx); err != nil {
		return fmt.Errorf("setting API restriction: %w", err)
	}
	if !u.Root {
		return fmt.Errorf("%w: only root may change API restrictions", ErrNoPermission)
	}
	d.hw().SetDriverFlag(flagName(api), !restricted)
	return nil
}

// GetAPIRestriction reports whether the API is currently restricted.
func (d *Device) GetAPIRestriction(api RestrictedAPI) (bool, error) {
	if err := d.checkInit(); err != nil {
		return false, err
	}
	return !d.hw().DriverFlag(flagName(api)), nil
}

// SampledEnergyBetween integrates the sampled power trace over a virtual
// time window — the quantity an asynchronous polling thread accumulates
// while a kernel runs (the fine-grained profiling mechanism of §4.2).
func (d *Device) SampledEnergyBetween(t0, t1 float64) (float64, error) {
	if err := d.checkInit(); err != nil {
		return 0, err
	}
	return d.hw().SampledEnergyBetween(t0, t1, SamplingPeriodSec), nil
}
