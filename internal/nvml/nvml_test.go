package nvml

import (
	"errors"
	"math"
	"testing"

	"synergy/internal/hw"
)

func newLib(t *testing.T) (*Library, *hw.Device) {
	t.Helper()
	dev := hw.NewDevice(hw.V100())
	lib, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Init(); err != nil {
		t.Fatal(err)
	}
	return lib, dev
}

func TestNewRejectsAMDDevices(t *testing.T) {
	t.Parallel()
	if _, err := New(hw.NewDevice(hw.MI100())); err == nil {
		t.Fatal("AMD device accepted by NVML")
	}
}

func TestInitShutdownLifecycle(t *testing.T) {
	t.Parallel()
	dev := hw.NewDevice(hw.V100())
	lib, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.DeviceGetHandleByIndex(0); !errors.Is(err, ErrUninitialized) {
		t.Fatalf("pre-init call: got %v, want ErrUninitialized", err)
	}
	if err := lib.Init(); err != nil {
		t.Fatal(err)
	}
	if err := lib.Init(); !errors.Is(err, ErrAlreadyInitial) {
		t.Fatalf("double init: got %v", err)
	}
	if _, err := lib.DeviceGetHandleByIndex(0); err != nil {
		t.Fatalf("handle after init: %v", err)
	}
	if err := lib.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := lib.Shutdown(); !errors.Is(err, ErrUninitialized) {
		t.Fatalf("double shutdown: got %v", err)
	}
}

func TestDeviceGetHandleByIndexBounds(t *testing.T) {
	t.Parallel()
	lib, _ := newLib(t)
	if _, err := lib.DeviceGetHandleByIndex(1); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("out-of-range index: got %v", err)
	}
	if _, err := lib.DeviceGetHandleByIndex(-1); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("negative index: got %v", err)
	}
}

func TestSupportedClocks(t *testing.T) {
	t.Parallel()
	lib, dev := newLib(t)
	h, _ := lib.DeviceGetHandleByIndex(0)
	cores, err := h.GetSupportedGraphicsClocks(877)
	if err != nil || len(cores) != len(dev.Spec().CoreFreqsMHz) {
		t.Fatalf("graphics clocks: %d entries, %v", len(cores), err)
	}
	if _, err := h.GetSupportedGraphicsClocks(1000); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("wrong mem clock: got %v", err)
	}
}

func TestApplicationClocksRequirePermission(t *testing.T) {
	t.Parallel()
	lib, dev := newLib(t)
	h, _ := lib.DeviceGetHandleByIndex(0)
	user := User{Name: "alice"}

	// Restricted by default: regular users are refused.
	err := h.SetApplicationsClocks(user, 877, dev.Spec().MinCoreMHz())
	if !errors.Is(err, ErrNoPermission) {
		t.Fatalf("unprivileged set: got %v, want ErrNoPermission", err)
	}

	// Root can always set.
	if err := h.SetApplicationsClocks(Root, 877, dev.Spec().MinCoreMHz()); err != nil {
		t.Fatal(err)
	}
	if dev.AppClockMHz() != dev.Spec().MinCoreMHz() {
		t.Fatalf("clock not applied: %d", dev.AppClockMHz())
	}

	// Root lifts the restriction; now the user can set.
	if err := h.SetAPIRestriction(Root, APISetApplicationClocks, false); err != nil {
		t.Fatal(err)
	}
	if err := h.SetApplicationsClocks(user, 877, dev.Spec().MaxCoreMHz()); err != nil {
		t.Fatalf("user set after restriction lifted: %v", err)
	}

	// Only root may toggle restrictions.
	if err := h.SetAPIRestriction(user, APISetApplicationClocks, true); !errors.Is(err, ErrNoPermission) {
		t.Fatalf("user toggled restriction: %v", err)
	}
}

func TestSetApplicationsClocksValidation(t *testing.T) {
	t.Parallel()
	lib, _ := newLib(t)
	h, _ := lib.DeviceGetHandleByIndex(0)
	if err := h.SetApplicationsClocks(Root, 900, 1312); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("wrong memory clock: got %v", err)
	}
	if err := h.SetApplicationsClocks(Root, 877, 1311); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("unsupported core clock: got %v", err)
	}
}

func TestResetApplicationsClocks(t *testing.T) {
	t.Parallel()
	lib, dev := newLib(t)
	h, _ := lib.DeviceGetHandleByIndex(0)
	if err := h.SetApplicationsClocks(Root, 877, dev.Spec().MinCoreMHz()); err != nil {
		t.Fatal(err)
	}
	if err := h.ResetApplicationsClocks(Root); err != nil {
		t.Fatal(err)
	}
	if dev.AppClockMHz() != dev.Spec().DefaultCoreMHz {
		t.Fatalf("reset left %d, want default %d", dev.AppClockMHz(), dev.Spec().DefaultCoreMHz)
	}
}

// TestTotalEnergyGrowsWithTime reads the energy since library
// initialisation, sampled on the 15 ms polling grid.
func TestTotalEnergyGrowsWithTime(t *testing.T) {
	t.Parallel()
	lib, dev := newLib(t)
	h, _ := lib.DeviceGetHandleByIndex(0)
	dev.AdvanceIdle(1.0)
	e1, err := h.SampledEnergyBetween(0, dev.Now())
	if err != nil {
		t.Fatal(err)
	}
	dev.AdvanceIdle(1.0)
	e2, err := h.SampledEnergyBetween(0, dev.Now())
	if err != nil {
		t.Fatal(err)
	}
	if e2 <= e1 {
		t.Fatalf("energy did not grow: %v -> %v J", e1, e2)
	}
	// ~1 s of idle power.
	want := dev.Spec().IdlePowerW
	if diff := math.Abs(e2 - e1 - want); diff > 0.05*want {
		t.Fatalf("energy delta %v J, want ~%.0f", e2-e1, want)
	}
}

func TestHandleAfterShutdownFails(t *testing.T) {
	t.Parallel()
	lib, _ := newLib(t)
	h, _ := lib.DeviceGetHandleByIndex(0)
	if err := lib.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.GetAPIRestriction(APISetApplicationClocks); !errors.Is(err, ErrUninitialized) {
		t.Fatalf("post-shutdown call: got %v", err)
	}
}

func TestGetAPIRestrictionDefault(t *testing.T) {
	t.Parallel()
	lib, _ := newLib(t)
	h, _ := lib.DeviceGetHandleByIndex(0)
	r, err := h.GetAPIRestriction(APISetApplicationClocks)
	if err != nil || !r {
		t.Fatalf("default restriction = %v, %v; want true (production default)", r, err)
	}
}
