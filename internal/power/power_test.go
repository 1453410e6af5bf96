package power

import (
	"testing"

	"synergy/internal/fault"
	"synergy/internal/hw"
	"synergy/internal/nvml"
	"synergy/internal/rapl"
	"synergy/internal/rocmsmi"
	"synergy/internal/telemetry"
)

func TestManagerBackendsForBothVendors(t *testing.T) {
	t.Parallel()
	for _, spec := range []*hw.Spec{hw.V100(), hw.MI100(), hw.Xeon8160()} {
		dev := hw.NewDevice(spec)
		m, err := NewPrivilegedManager(dev)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if m.VendorName() != spec.Vendor.String() {
			t.Errorf("%s: vendor %q", spec.Name, m.VendorName())
		}
		if m.DeviceName() != spec.Name {
			t.Errorf("device name %q, want %q", m.DeviceName(), spec.Name)
		}
		if got := len(m.SupportedCoreFreqs()); got != len(spec.CoreFreqsMHz) {
			t.Errorf("%s: %d core freqs, want %d", spec.Name, got, len(spec.CoreFreqsMHz))
		}
		if m.MemFreqMHz() != spec.MemFreqMHz {
			t.Errorf("%s: mem freq %d", spec.Name, m.MemFreqMHz())
		}
		if m.CurrentCoreFreq() != spec.DefaultCoreMHz {
			t.Errorf("%s: starts at %d, want the default %d", spec.Name, m.CurrentCoreFreq(), spec.DefaultCoreMHz)
		}
	}
}

func TestSetAndResetCoreFreqAcrossVendors(t *testing.T) {
	t.Parallel()
	for _, spec := range []*hw.Spec{hw.V100(), hw.MI100(), hw.Xeon8160()} {
		dev := hw.NewDevice(spec)
		m, err := NewPrivilegedManager(dev)
		if err != nil {
			t.Fatal(err)
		}
		target := spec.CoreFreqsMHz[2]
		if err := m.SetCoreFreq(target); err != nil {
			t.Fatalf("%s: SetCoreFreq: %v", spec.Name, err)
		}
		if m.CurrentCoreFreq() != target {
			t.Fatalf("%s: current %d, want %d", spec.Name, m.CurrentCoreFreq(), target)
		}
		if err := m.ResetCoreFreq(); err != nil {
			t.Fatalf("%s: ResetCoreFreq: %v", spec.Name, err)
		}
		if m.CurrentCoreFreq() != spec.DefaultCoreMHz {
			t.Fatalf("%s: after reset %d, want %d", spec.Name, m.CurrentCoreFreq(), spec.DefaultCoreMHz)
		}
	}
}

func TestSetCoreFreqRejectsUnsupported(t *testing.T) {
	t.Parallel()
	for _, spec := range []*hw.Spec{hw.V100(), hw.MI100(), hw.Xeon8160()} {
		m, err := NewPrivilegedManager(hw.NewDevice(spec))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetCoreFreq(12345); err == nil {
			t.Fatalf("%s: unsupported frequency accepted", spec.Name)
		}
	}
}

func TestUnprivilegedManagerCannotScaleNVIDIA(t *testing.T) {
	t.Parallel()
	// On a production NVIDIA node without the plugin's privilege window,
	// a regular user cannot change clocks (the motivation for §7).
	dev := hw.NewDevice(hw.V100())
	m, err := NewManager(dev, "alice", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetCoreFreq(dev.Spec().MinCoreMHz()); err == nil {
		t.Fatal("unprivileged frequency scaling succeeded")
	}
}

func TestSampledEnergyMatchesDevice(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		spec   *hw.Spec
		period float64
	}{
		{hw.V100(), nvml.SamplingPeriodSec},
		{hw.MI100(), rocmsmi.SamplingPeriodSec},
		{hw.Xeon8160(), rapl.SamplingPeriodSec},
	} {
		spec := c.spec
		dev := hw.NewDevice(spec)
		m, err := NewPrivilegedManager(dev)
		if err != nil {
			t.Fatal(err)
		}
		dev.AdvanceIdle(1.0)
		got := m.SampledEnergy(0, 1.0)
		want := dev.SampledEnergyBetween(0, 1.0, c.period)
		if got != want || got <= 0 {
			t.Fatalf("%s: SampledEnergy = %v, want %v", spec.Name, got, want)
		}
		if m.DeviceNow() != dev.Now() {
			t.Fatalf("%s: DeviceNow = %v, want %v", spec.Name, m.DeviceNow(), dev.Now())
		}
	}
}

func TestSamplingPeriodsDifferByVendor(t *testing.T) {
	t.Parallel()
	if nvml.SamplingPeriodSec <= rocmsmi.SamplingPeriodSec {
		t.Fatalf("NVML period %v should be coarser than SMI %v",
			nvml.SamplingPeriodSec, rocmsmi.SamplingPeriodSec)
	}
}

// TestMI100VendorCountersMatchInjector cross-checks the ROCm SMI path's
// vendor-call counters the way apps' telemetry test does NVML's: under a
// flaky set_clock_level rule, the call counter equals the injector's
// CallCount and the fault counter equals the failed calls in its trace.
func TestMI100VendorCountersMatchInjector(t *testing.T) {
	t.Parallel()
	sc, err := fault.ParseScenario("flaky-smi", "rocmsmi.set_clock_level p=0.3 err=rocmsmi.timeout\n")
	if err != nil {
		t.Fatal(err)
	}
	const label = "node0/gpu0"
	dev := hw.NewDevice(hw.MI100())
	dev.SetLabel(label)
	in := fault.NewFromScenario(11, sc)
	reg := telemetry.NewRegistry()
	dev.SetFaultInjector(in)
	dev.SetTelemetry(reg)
	m, err := NewPrivilegedManager(dev)
	if err != nil {
		t.Fatal(err)
	}
	freqs := m.SupportedCoreFreqs()
	const sets = 40
	var failed int64
	for i := 0; i < sets; i++ {
		if err := m.SetCoreFreq(freqs[i%len(freqs)]); err != nil {
			if !IsTransient(err) {
				t.Fatalf("set %d: %v is not the injected timeout", i, err)
			}
			failed++
		}
	}
	if err := m.ResetCoreFreq(); err != nil {
		t.Fatal(err)
	}

	site := rocmsmi.SiteSetClockLevel + ":" + label
	var traced int64
	for _, ev := range in.Trace() {
		if ev.Site == site && ev.Err != "" {
			traced++
		}
	}
	if failed == 0 || failed == sets {
		t.Fatalf("%d of %d sets failed; the cross-check needs both outcomes", failed, sets)
	}
	snap := reg.Snapshot()
	count := func(name, call string) int64 {
		return snap.CounterValue(name, "lib", "rocmsmi", "call", call, "device", label)
	}
	if calls := count("synergy_vendor_calls_total", "set_clock_level"); calls != sets || calls != in.CallCount(site) {
		t.Errorf("set_clock_level: calls counter %d, injector CallCount %d, want %d", calls, in.CallCount(site), sets)
	}
	if faults := count("synergy_vendor_faults_total", "set_clock_level"); faults != failed || faults != traced {
		t.Errorf("set_clock_level: faults counter %d, failed sets %d, trace has %d", faults, failed, traced)
	}
	autoSite := rocmsmi.SiteSetPerfAuto + ":" + label
	if calls := count("synergy_vendor_calls_total", "set_perf_auto"); calls != 1 || calls != in.CallCount(autoSite) {
		t.Errorf("set_perf_auto: calls counter %d, injector CallCount %d, want 1", calls, in.CallCount(autoSite))
	}
}
