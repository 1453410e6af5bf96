package rocmsmi

import (
	"errors"
	"testing"

	"synergy/internal/hw"
)

func newLib(t *testing.T) (*Library, *hw.Device) {
	t.Helper()
	dev := hw.NewDevice(hw.MI100())
	lib, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Init(); err != nil {
		t.Fatal(err)
	}
	return lib, dev
}

func TestNewRejectsNVIDIADevices(t *testing.T) {
	t.Parallel()
	if _, err := New(hw.NewDevice(hw.V100())); err == nil {
		t.Fatal("NVIDIA device accepted by ROCm SMI")
	}
}

func TestLifecycle(t *testing.T) {
	t.Parallel()
	dev := hw.NewDevice(hw.MI100())
	lib, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.DeviceByIndex(0); !errors.Is(err, ErrUninitialized) {
		t.Fatalf("pre-init: %v", err)
	}
	if err := lib.Init(); err != nil {
		t.Fatal(err)
	}
	if err := lib.Init(); err == nil {
		t.Fatal("double init accepted")
	}
	if _, err := lib.DeviceByIndex(0); err != nil {
		t.Fatalf("handle after init: %v", err)
	}
	if _, err := lib.DeviceByIndex(1); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("out-of-range index: %v", err)
	}
}

func TestClockLevels(t *testing.T) {
	t.Parallel()
	lib, _ := newLib(t)
	h, _ := lib.DeviceByIndex(0)
	levels, err := h.ClockLevels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 16 {
		t.Fatalf("MI100 should expose 16 DPM levels, got %d", len(levels))
	}
	if levels[0] != 300 || levels[15] != 1502 {
		t.Fatalf("DPM range [%d, %d], want [300, 1502]", levels[0], levels[15])
	}
}

// TestPerfLevelStartsAuto: the MI100 has no default clock, so a fresh
// device starts at the auto performance level with nothing pinned.
func TestPerfLevelStartsAuto(t *testing.T) {
	t.Parallel()
	_, dev := newLib(t)
	if dev.AppClockMHz() != 0 {
		t.Fatalf("device should start unpinned, got %d MHz", dev.AppClockMHz())
	}
}

func TestSetClockLevelPermissionsAndValidation(t *testing.T) {
	t.Parallel()
	lib, dev := newLib(t)
	h, _ := lib.DeviceByIndex(0)
	user := User{Name: "bob"}

	if err := h.SetClockLevel(user, 3); !errors.Is(err, ErrNoPermission) {
		t.Fatalf("unprivileged set: %v", err)
	}
	if err := h.SetClockLevel(Root, 16); !errors.Is(err, ErrInvalidArg) {
		t.Fatalf("out-of-range level: %v", err)
	}
	if err := h.SetClockLevel(Root, 3); err != nil {
		t.Fatal(err)
	}
	if dev.AppClockMHz() != 540 {
		t.Fatalf("level 3 pinned %d MHz, want 540", dev.AppClockMHz())
	}
	if err := h.SetPerfLevelAuto(user); !errors.Is(err, ErrNoPermission) {
		t.Fatalf("unprivileged return to auto: %v", err)
	}
}

func TestSetPerfLevelAutoUnpins(t *testing.T) {
	t.Parallel()
	lib, dev := newLib(t)
	h, _ := lib.DeviceByIndex(0)
	if err := h.SetClockLevel(Root, 5); err != nil {
		t.Fatal(err)
	}
	if err := h.SetPerfLevelAuto(Root); err != nil {
		t.Fatal(err)
	}
	if dev.AppClockMHz() != 0 {
		t.Fatalf("auto mode left clock pinned at %d", dev.AppClockMHz())
	}
}

// TestPowerAndEnergyReads reads energy on the 1 ms accumulator grid:
// over an idle window it is the idle power's, and over a long kernel it
// averages to the kernel's board power.
func TestPowerAndEnergyReads(t *testing.T) {
	t.Parallel()
	lib, dev := newLib(t)
	h, _ := lib.DeviceByIndex(0)
	dev.AdvanceIdle(0.5)
	e, err := h.SampledEnergyBetween(0, dev.Now())
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * dev.Spec().IdlePowerW
	if e < 0.9*want || e > 1.1*want {
		t.Fatalf("idle energy %v J, want ~%v", e, want)
	}
	r, err := dev.ExecuteKernel(hw.Workload{Name: "cb", Items: 1 << 30, FloatOps: 2000, GlobalBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.End-r.Start < 0.05 {
		t.Fatalf("kernel of %v s is too short to average over the 1 ms grid", r.End-r.Start)
	}
	e, err = h.SampledEnergyBetween(r.Start, r.End)
	if err != nil {
		t.Fatal(err)
	}
	if p := e / (r.End - r.Start); p < 0.95*r.AvgPowerW || p > 1.05*r.AvgPowerW {
		t.Fatalf("average power over the kernel %v W, want ~%v", p, r.AvgPowerW)
	}
}
