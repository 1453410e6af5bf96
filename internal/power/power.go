// Package power is SYnergy's vendor-neutral energy/frequency binding
// layer (§4): one interface over the vendor-specific management
// libraries, with NVML, ROCm SMI and RAPL backends. The runtime
// (internal/core) programs against this interface only, which is what
// makes the approach portable across NVIDIA and AMD GPUs.
package power

import (
	"errors"
	"fmt"
	"slices"

	"synergy/internal/hw"
	"synergy/internal/nvml"
	"synergy/internal/rapl"
	"synergy/internal/rocmsmi"
)

// Manager exposes the frequency-scaling and energy-profiling
// capabilities of one device.
type Manager interface {
	// VendorName identifies the backend ("NVIDIA", "AMD" or "Intel").
	VendorName() string
	// DeviceName is the board's marketing name.
	DeviceName() string
	// SupportedCoreFreqs lists the core frequencies in ascending MHz.
	SupportedCoreFreqs() []int
	// MemFreqMHz is the (fixed) memory frequency.
	MemFreqMHz() int
	// SetCoreFreq pins the core clock.
	SetCoreFreq(mhz int) error
	// ResetCoreFreq restores the driver default (or auto).
	ResetCoreFreq() error
	// CurrentCoreFreq reports the pinned clock, or 0 in auto mode.
	CurrentCoreFreq() int
	// SampledEnergy integrates the sampled power trace over a virtual
	// time window (what an async polling thread would accumulate).
	SampledEnergy(t0, t1 float64) float64
	// DeviceNow returns the device's virtual time.
	DeviceNow() float64
	// Sleep advances the device's virtual time by dt seconds of idle —
	// the wait a host-side retry/backoff loop spends between attempts.
	Sleep(dtSec float64)
}

// IsPermissionDenied reports whether a vendor-library error means the
// caller lacks the privilege to change device state — the condition the
// runtime degrades gracefully on (the job runs at default clocks)
// rather than retries.
func IsPermissionDenied(err error) bool {
	return errors.Is(err, nvml.ErrNoPermission) ||
		errors.Is(err, rocmsmi.ErrNoPermission) ||
		errors.Is(err, rapl.ErrNoPermission)
}

// IsTransient reports whether a vendor-library error is a transient
// condition worth retrying (driver/SMU timeouts under load).
func IsTransient(err error) bool {
	return errors.Is(err, nvml.ErrTimeout) || errors.Is(err, rocmsmi.ErrTimeout)
}

// NewManager builds the device's manager, with the given caller identity
// for state-changing calls. The vendor switch opens the management
// library and supplies the four calls that differ by vendor: list, pin
// and reset the core clock, and read sampled energy.
func NewManager(dev *hw.Device, userName string, root bool) (Manager, error) {
	spec := dev.Spec()
	m := &manager{dev: dev}
	switch spec.Vendor {
	case hw.NVIDIA:
		lib, err := nvml.New(dev)
		if err != nil {
			return nil, err
		}
		if err := lib.Init(); err != nil {
			return nil, err
		}
		h, err := lib.DeviceGetHandleByIndex(0)
		if err != nil {
			return nil, err
		}
		user := nvml.User{Name: userName, Root: root}
		m.list = func() ([]int, error) { return h.GetSupportedGraphicsClocks(spec.MemFreqMHz) }
		m.pin = func(mhz int) error { return h.SetApplicationsClocks(user, spec.MemFreqMHz, mhz) }
		m.reset = func() error { return h.ResetApplicationsClocks(user) }
		m.energy = h.SampledEnergyBetween
	case hw.Intel:
		pkg, err := rapl.New(dev)
		if err != nil {
			return nil, err
		}
		if err := pkg.Init(); err != nil {
			return nil, err
		}
		user := rapl.User{Name: userName, Root: root}
		m.list = func() ([]int, error) { return slices.Clone(spec.CoreFreqsMHz), nil }
		m.pin = func(mhz int) error {
			if gov, err := pkg.CurrentGovernor(); err != nil {
				return err
			} else if gov != rapl.GovernorUserspace {
				if err := pkg.SetGovernor(user, rapl.GovernorUserspace); err != nil {
					return err
				}
			}
			return pkg.SetFrequency(user, mhz)
		}
		m.reset = func() error { return pkg.SetGovernor(user, rapl.GovernorOndemand) }
		m.energy = pkg.SampledEnergyBetween
	case hw.AMD:
		lib, err := rocmsmi.New(dev)
		if err != nil {
			return nil, err
		}
		if err := lib.Init(); err != nil {
			return nil, err
		}
		h, err := lib.DeviceByIndex(0)
		if err != nil {
			return nil, err
		}
		user := rocmsmi.User{Name: userName, Root: root}
		m.list = h.ClockLevels
		m.pin = func(mhz int) error {
			if i := slices.Index(spec.CoreFreqsMHz, mhz); i >= 0 {
				return h.SetClockLevel(user, i)
			}
			return fmt.Errorf("power: %s does not support %d MHz", spec.Name, mhz)
		}
		m.reset = func() error { return h.SetPerfLevelAuto(user) }
		m.energy = h.SampledEnergyBetween
	default:
		return nil, fmt.Errorf("power: no backend for vendor %v", spec.Vendor)
	}
	return m, nil
}

// NewPrivilegedManager is a convenience for tests and single-node tools:
// a manager whose state-changing calls run as root (on a cluster this is
// what the nvgpufreq plugin's privilege window grants, §7).
func NewPrivilegedManager(dev *hw.Device) (Manager, error) {
	return NewManager(dev, "root", true)
}

// manager is the one Manager: what every vendor shares it reads from the
// hw.Device, and the vendor library calls come in as closures over the
// library handle that NewManager opened.
type manager struct {
	dev    *hw.Device
	list   func() ([]int, error)
	pin    func(mhz int) error
	reset  func() error
	energy func(t0, t1 float64) (float64, error)
}

func (m *manager) VendorName() string        { return m.dev.Spec().Vendor.String() }
func (m *manager) DeviceName() string        { return m.dev.Spec().Name }
func (m *manager) MemFreqMHz() int           { return m.dev.Spec().MemFreqMHz }
func (m *manager) SetCoreFreq(mhz int) error { return m.pin(mhz) }
func (m *manager) ResetCoreFreq() error      { return m.reset() }
func (m *manager) CurrentCoreFreq() int      { return m.dev.AppClockMHz() }
func (m *manager) Sleep(dtSec float64)       { m.dev.AdvanceIdle(dtSec) }
func (m *manager) DeviceNow() float64        { return m.dev.Now() }

func (m *manager) SupportedCoreFreqs() []int {
	fs, err := m.list()
	if err != nil {
		return nil
	}
	return fs
}

func (m *manager) SampledEnergy(t0, t1 float64) float64 {
	e, err := m.energy(t0, t1)
	if err != nil {
		return 0
	}
	return e
}
