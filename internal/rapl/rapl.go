// Package rapl simulates the Intel Running Average Power Limit energy
// readings (§2.1), sampled on the ~1 ms RAPL update grid, together with
// the cpufreq frequency controls: P-state pinning through a
// cpufreq-style governor. With this backend the SYnergy binding layer
// covers CPUs as well as both GPU vendors — the portability gap the
// paper calls out.
package rapl

import (
	"errors"
	"fmt"
	"sync"

	"synergy/internal/hw"
)

// SamplingPeriodSec is the RAPL counter update interval (~1 ms).
const SamplingPeriodSec = 0.001

// Common errors.
var (
	ErrUninitialized = errors.New("rapl: not initialized")
	ErrNoPermission  = errors.New("rapl: permission denied (cpufreq writes require root)")
	ErrInvalidArg    = errors.New("rapl: invalid argument")
)

// User identifies callers; cpufreq sysfs writes require root.
type User struct {
	Name string
	Root bool
}

// Root is the superuser identity.
var Root = User{Name: "root", Root: true}

// Governor mirrors the cpufreq scaling governors we model.
type Governor string

const (
	// GovernorOndemand lets the kernel pick the P-state (the default).
	GovernorOndemand Governor = "ondemand"
	// GovernorUserspace pins the frequency chosen with SetFrequency.
	GovernorUserspace Governor = "userspace"
)

// Package is a simulated RAPL package domain bound to one CPU device.
type Package struct {
	mu       sync.Mutex
	dev      *hw.Device
	inited   bool
	governor Governor
}

// New creates the RAPL/cpufreq interface for an Intel CPU device.
func New(dev *hw.Device) (*Package, error) {
	if dev.Spec().Vendor != hw.Intel {
		return nil, fmt.Errorf("rapl: device %s is not an Intel CPU", dev.Spec().Name)
	}
	return &Package{dev: dev, governor: GovernorOndemand}, nil
}

// Init opens the MSR interface.
func (p *Package) Init() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inited {
		return errors.New("rapl: already initialized")
	}
	p.inited = true
	return nil
}

func (p *Package) checkInit() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.inited {
		return ErrUninitialized
	}
	return nil
}

// SetGovernor selects the cpufreq governor (root only).
func (p *Package) SetGovernor(u User, g Governor) error {
	if err := p.checkInit(); err != nil {
		return err
	}
	if !u.Root {
		return ErrNoPermission
	}
	switch g {
	case GovernorOndemand:
		p.mu.Lock()
		p.governor = g
		p.mu.Unlock()
		p.dev.ResetAppClock()
		return nil
	case GovernorUserspace:
		p.mu.Lock()
		p.governor = g
		p.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("%w: unknown governor %q", ErrInvalidArg, g)
	}
}

// CurrentGovernor returns the active governor.
func (p *Package) CurrentGovernor() (Governor, error) {
	if err := p.checkInit(); err != nil {
		return "", err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.governor, nil
}

// SetFrequency pins the package frequency (requires the userspace
// governor; root only).
func (p *Package) SetFrequency(u User, mhz int) error {
	if err := p.checkInit(); err != nil {
		return err
	}
	if !u.Root {
		return ErrNoPermission
	}
	p.mu.Lock()
	gov := p.governor
	p.mu.Unlock()
	if gov != GovernorUserspace {
		return fmt.Errorf("%w: frequency pinning requires the userspace governor", ErrInvalidArg)
	}
	if !p.dev.Spec().SupportsCoreFreq(mhz) {
		return fmt.Errorf("%w: %d MHz not a supported P-state", ErrInvalidArg, mhz)
	}
	return p.dev.SetAppClock(mhz)
}

// SampledEnergyBetween integrates the sampled power trace over a window.
func (p *Package) SampledEnergyBetween(t0, t1 float64) (float64, error) {
	if err := p.checkInit(); err != nil {
		return 0, err
	}
	return p.dev.SampledEnergyBetween(t0, t1, SamplingPeriodSec), nil
}
