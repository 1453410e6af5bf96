package hw

import (
	"fmt"
	"strings"
)

// Budget is the Lumos HeterogSys-style system envelope a heterogeneous
// fleet lives under: a shared power budget and a die-area budget. A
// zero field means that axis is unconstrained.
type Budget struct {
	// PowerW caps the instantaneous fleet power draw: the running
	// device's board power plus the idle power of every other fleet
	// device must stay at or below it.
	PowerW float64
	// AreaMM2 caps the summed die area of the fleet's devices.
	AreaMM2 float64
}

// String renders the budget for diagnostics.
func (b Budget) String() string {
	switch {
	case b.PowerW > 0 && b.AreaMM2 > 0:
		return fmt.Sprintf("%.0f W / %.0f mm²", b.PowerW, b.AreaMM2)
	case b.PowerW > 0:
		return fmt.Sprintf("%.0f W", b.PowerW)
	case b.AreaMM2 > 0:
		return fmt.Sprintf("%.0f mm²", b.AreaMM2)
	default:
		return "unconstrained"
	}
}

// FleetDevice is one member of a fleet: a device spec under a stable
// short key (the command-line identifier for builtin specs).
type FleetDevice struct {
	Key  string
	Spec *Spec
}

// Fleet is a heterogeneous system in the Lumos HeterogSys shape: serial
// cores, throughput cores and accelerators composed under one shared
// area/power budget. Device order is significant — it is the
// deterministic tie-break order of the joint placement search
// (internal/placement), so two fleets with the same devices in a
// different order are different fleets.
type Fleet struct {
	Name    string
	Budget  Budget
	Devices []FleetDevice
}

// NewFleet assembles and validates a fleet.
func NewFleet(name string, budget Budget, devices ...FleetDevice) (*Fleet, error) {
	f := &Fleet{Name: name, Budget: budget, Devices: devices}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// FleetFromNames builds a fleet of builtin devices, keyed and ordered
// exactly as named (the order pins placement tie-breaking).
func FleetFromNames(names []string, budget Budget) (*Fleet, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("hw: fleet needs at least one device")
	}
	devices := make([]FleetDevice, 0, len(names))
	for _, n := range names {
		s, err := SpecByName(n)
		if err != nil {
			return nil, err
		}
		devices = append(devices, FleetDevice{Key: n, Spec: s})
	}
	return NewFleet(strings.Join(names, "+"), budget, devices...)
}

// Validate reports an error when the fleet is internally inconsistent:
// no devices, duplicate keys, an invalid member spec, a power budget
// below the fleet's idle floor (nothing could ever run), or summed die
// area exceeding the area budget.
func (f *Fleet) Validate() error {
	if len(f.Devices) == 0 {
		return fmt.Errorf("hw: fleet %q has no devices", f.Name)
	}
	seen := make(map[string]bool, len(f.Devices))
	for _, d := range f.Devices {
		if d.Key == "" {
			return fmt.Errorf("hw: fleet %q has a device with an empty key", f.Name)
		}
		if seen[d.Key] {
			return fmt.Errorf("hw: fleet %q has duplicate device key %q", f.Name, d.Key)
		}
		seen[d.Key] = true
		if d.Spec == nil {
			return fmt.Errorf("hw: fleet %q device %q has no spec", f.Name, d.Key)
		}
		if err := d.Spec.Validate(); err != nil {
			return fmt.Errorf("hw: fleet %q device %q: %w", f.Name, d.Key, err)
		}
	}
	if f.Budget.PowerW < 0 || f.Budget.AreaMM2 < 0 {
		return fmt.Errorf("hw: fleet %q has a negative budget", f.Name)
	}
	if f.Budget.PowerW > 0 {
		// The tightest possible draw is every device idle; a budget below
		// that can never host any placement.
		if idle := f.TotalIdleW(); f.Budget.PowerW < idle {
			return fmt.Errorf("hw: fleet %q power budget %.0f W below the %.0f W idle floor",
				f.Name, f.Budget.PowerW, idle)
		}
	}
	if f.Budget.AreaMM2 > 0 {
		if area := f.TotalAreaMM2(); area > f.Budget.AreaMM2 {
			return fmt.Errorf("hw: fleet %q die area %.0f mm² exceeds the %.0f mm² budget",
				f.Name, area, f.Budget.AreaMM2)
		}
	}
	return nil
}

// TotalIdleW is the fleet's idle power floor: every device powered but
// no kernel resident anywhere.
func (f *Fleet) TotalIdleW() float64 {
	var w float64
	for _, d := range f.Devices {
		w += d.Spec.IdlePowerW
	}
	return w
}

// TotalAreaMM2 is the summed die area of the fleet.
func (f *Fleet) TotalAreaMM2() float64 {
	var a float64
	for _, d := range f.Devices {
		a += d.Spec.AreaMM2
	}
	return a
}

// IdleOthersW is the idle power of every fleet device except device i.
func (f *Fleet) IdleOthersW(i int) float64 {
	var w float64
	for j, d := range f.Devices {
		if j != i {
			w += d.Spec.IdlePowerW
		}
	}
	return w
}

// FleetPowerW is the instantaneous fleet draw when device i runs a
// kernel at devicePowerW board power and every other device idles —
// the quantity the power budget constrains.
func (f *Fleet) FleetPowerW(i int, devicePowerW float64) float64 {
	return devicePowerW + f.IdleOthersW(i)
}

// Feasible reports whether running device i at devicePowerW board power
// fits the fleet power budget (a small relative epsilon absorbs the
// model's floating-point rounding; an unset budget admits everything).
func (f *Fleet) Feasible(i int, devicePowerW float64) bool {
	if f.Budget.PowerW <= 0 {
		return true
	}
	return f.FleetPowerW(i, devicePowerW) <= f.Budget.PowerW*(1+1e-12)
}

// DeviceByKey returns the index of the device under key, or -1.
func (f *Fleet) DeviceByKey(key string) int {
	for i, d := range f.Devices {
		if d.Key == key {
			return i
		}
	}
	return -1
}
