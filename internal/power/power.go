// Package power is SYnergy's vendor-neutral energy/frequency binding
// layer (§4): one interface over the vendor-specific management
// libraries, with NVML and ROCm SMI backends. The runtime (internal/core)
// programs against this interface only, which is what makes the approach
// portable across NVIDIA and AMD GPUs.
package power

import (
	"errors"
	"fmt"

	"synergy/internal/hw"
	"synergy/internal/nvml"
	"synergy/internal/rapl"
	"synergy/internal/rocmsmi"
)

// Manager exposes the frequency-scaling and energy-profiling
// capabilities of one device.
type Manager interface {
	// VendorName identifies the backend ("NVIDIA" or "AMD").
	VendorName() string
	// DeviceName is the board's marketing name.
	DeviceName() string
	// SupportedCoreFreqs lists the core frequencies in ascending MHz.
	SupportedCoreFreqs() []int
	// MemFreqMHz is the (fixed) memory frequency.
	MemFreqMHz() int
	// DefaultCoreFreq is the driver-default core clock, or 0 when the
	// device auto-scales.
	DefaultCoreFreq() int
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
	// SamplingPeriod returns the telemetry period in seconds.
	SamplingPeriod() float64
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

// NewManager builds the appropriate backend for the device, with the
// given caller identity for state-changing calls.
func NewManager(dev *hw.Device, userName string, root bool) (Manager, error) {
	switch dev.Spec().Vendor {
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
		return &nvmlManager{dev: dev, lib: lib, h: h, user: nvml.User{Name: userName, Root: root}}, nil
	case hw.Intel:
		pkg, err := rapl.New(dev)
		if err != nil {
			return nil, err
		}
		if err := pkg.Init(); err != nil {
			return nil, err
		}
		return &raplManager{dev: dev, pkg: pkg, user: rapl.User{Name: userName, Root: root}}, nil
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
		return &smiManager{dev: dev, lib: lib, h: h, user: rocmsmi.User{Name: userName, Root: root}}, nil
	default:
		return nil, fmt.Errorf("power: no backend for vendor %v", dev.Spec().Vendor)
	}
}

// NewPrivilegedManager is a convenience for tests and single-node tools:
// a manager whose state-changing calls run as root (on a cluster this is
// what the nvgpufreq plugin's privilege window grants, §7).
func NewPrivilegedManager(dev *hw.Device) (Manager, error) {
	return NewManager(dev, "root", true)
}

type nvmlManager struct {
	dev  *hw.Device
	lib  *nvml.Library
	h    *nvml.Device
	user nvml.User
}

func (m *nvmlManager) VendorName() string { return hw.NVIDIA.String() }
func (m *nvmlManager) DeviceName() string { return m.dev.Spec().Name }

func (m *nvmlManager) SupportedCoreFreqs() []int {
	fs, err := m.h.GetSupportedGraphicsClocks(m.dev.Spec().MemFreqMHz)
	if err != nil {
		return nil
	}
	return fs
}

func (m *nvmlManager) MemFreqMHz() int      { return m.dev.Spec().MemFreqMHz }
func (m *nvmlManager) DefaultCoreFreq() int { return m.dev.Spec().DefaultCoreMHz }

func (m *nvmlManager) SetCoreFreq(mhz int) error {
	return m.h.SetApplicationsClocks(m.user, m.dev.Spec().MemFreqMHz, mhz)
}

func (m *nvmlManager) ResetCoreFreq() error {
	return m.h.ResetApplicationsClocks(m.user)
}

func (m *nvmlManager) CurrentCoreFreq() int { return m.dev.AppClockMHz() }

func (m *nvmlManager) SampledEnergy(t0, t1 float64) float64 {
	e, err := m.h.SampledEnergyBetween(t0, t1)
	if err != nil {
		return 0
	}
	return e
}

func (m *nvmlManager) Sleep(dtSec float64)     { m.dev.AdvanceIdle(dtSec) }
func (m *nvmlManager) DeviceNow() float64      { return m.dev.Now() }
func (m *nvmlManager) SamplingPeriod() float64 { return nvml.SamplingPeriodSec }

type smiManager struct {
	dev  *hw.Device
	lib  *rocmsmi.Library
	h    *rocmsmi.Device
	user rocmsmi.User
}

func (m *smiManager) VendorName() string { return hw.AMD.String() }
func (m *smiManager) DeviceName() string { return m.dev.Spec().Name }

func (m *smiManager) SupportedCoreFreqs() []int {
	fs, err := m.h.ClockLevels()
	if err != nil {
		return nil
	}
	return fs
}

func (m *smiManager) MemFreqMHz() int      { return m.dev.Spec().MemFreqMHz }
func (m *smiManager) DefaultCoreFreq() int { return m.dev.Spec().DefaultCoreMHz }

func (m *smiManager) SetCoreFreq(mhz int) error {
	spec := m.dev.Spec()
	for i, f := range spec.CoreFreqsMHz {
		if f == mhz {
			return m.h.SetClockLevel(m.user, i)
		}
	}
	return fmt.Errorf("power: %s does not support %d MHz", spec.Name, mhz)
}

func (m *smiManager) ResetCoreFreq() error {
	return m.h.SetPerfLevelAuto(m.user)
}

func (m *smiManager) CurrentCoreFreq() int { return m.dev.AppClockMHz() }

func (m *smiManager) SampledEnergy(t0, t1 float64) float64 {
	e, err := m.h.SampledEnergyBetween(t0, t1)
	if err != nil {
		return 0
	}
	return e
}

func (m *smiManager) Sleep(dtSec float64)     { m.dev.AdvanceIdle(dtSec) }
func (m *smiManager) DeviceNow() float64      { return m.dev.Now() }
func (m *smiManager) SamplingPeriod() float64 { return rocmsmi.SamplingPeriodSec }

type raplManager struct {
	dev  *hw.Device
	pkg  *rapl.Package
	user rapl.User
}

func (m *raplManager) VendorName() string { return hw.Intel.String() }
func (m *raplManager) DeviceName() string { return m.dev.Spec().Name }

func (m *raplManager) SupportedCoreFreqs() []int {
	spec := m.dev.Spec()
	out := make([]int, len(spec.CoreFreqsMHz))
	copy(out, spec.CoreFreqsMHz)
	return out
}

func (m *raplManager) MemFreqMHz() int      { return m.dev.Spec().MemFreqMHz }
func (m *raplManager) DefaultCoreFreq() int { return m.dev.Spec().DefaultCoreMHz }

func (m *raplManager) SetCoreFreq(mhz int) error {
	if gov, err := m.pkg.CurrentGovernor(); err != nil {
		return err
	} else if gov != rapl.GovernorUserspace {
		if err := m.pkg.SetGovernor(m.user, rapl.GovernorUserspace); err != nil {
			return err
		}
	}
	return m.pkg.SetFrequency(m.user, mhz)
}

func (m *raplManager) ResetCoreFreq() error {
	return m.pkg.SetGovernor(m.user, rapl.GovernorOndemand)
}

func (m *raplManager) CurrentCoreFreq() int { return m.dev.AppClockMHz() }

func (m *raplManager) SampledEnergy(t0, t1 float64) float64 {
	e, err := m.pkg.SampledEnergyBetween(t0, t1)
	if err != nil {
		return 0
	}
	return e
}

func (m *raplManager) Sleep(dtSec float64)     { m.dev.AdvanceIdle(dtSec) }
func (m *raplManager) DeviceNow() float64      { return m.dev.Now() }
func (m *raplManager) SamplingPeriod() float64 { return rapl.SamplingPeriodSec }
