package hw

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"synergy/internal/fault"
	"synergy/internal/telemetry"
)

func TestDeviceExecuteAdvancesTime(t *testing.T) {
	t.Parallel()
	d := NewDevice(V100())
	w := computeBoundWL()
	r, err := d.ExecuteKernel(w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start != 0 || r.End <= r.Start {
		t.Fatalf("bad record interval [%v, %v]", r.Start, r.End)
	}
	if d.Now() != r.End {
		t.Fatalf("device time %v, want %v", d.Now(), r.End)
	}
	if d.KernelCount() != 1 {
		t.Fatalf("kernel count %d, want 1", d.KernelCount())
	}
}

func TestDeviceUsesAppClock(t *testing.T) {
	t.Parallel()
	d := NewDevice(V100())
	low := d.Spec().CoreFreqsMHz[10]
	if err := d.SetAppClock(low); err != nil {
		t.Fatal(err)
	}
	r, err := d.ExecuteKernel(computeBoundWL())
	if err != nil {
		t.Fatal(err)
	}
	if r.CoreMHz != low {
		t.Fatalf("kernel ran at %d MHz, want %d", r.CoreMHz, low)
	}
}

func TestDeviceAutoModeRunsAtMax(t *testing.T) {
	t.Parallel()
	d := NewDevice(MI100())
	if d.AppClockMHz() != 0 {
		t.Fatalf("MI100 should start in auto mode, got %d", d.AppClockMHz())
	}
	r, err := d.ExecuteKernel(memoryBoundWL())
	if err != nil {
		t.Fatal(err)
	}
	if r.CoreMHz != d.Spec().MaxCoreMHz() {
		t.Fatalf("auto mode ran at %d, want max %d", r.CoreMHz, d.Spec().MaxCoreMHz())
	}
}

func TestSetAppClockValidation(t *testing.T) {
	t.Parallel()
	d := NewDevice(V100())
	if err := d.SetAppClock(123); err == nil {
		t.Fatal("unsupported clock accepted")
	}
}

func TestSetAppClockOverheadAndRedundantSet(t *testing.T) {
	t.Parallel()
	d := NewDevice(V100())
	low := d.Spec().CoreFreqsMHz[0]
	if err := d.SetAppClock(low); err != nil {
		t.Fatal(err)
	}
	after := d.Now()
	if after != d.Spec().ClockSetOverheadSec {
		t.Fatalf("clock set cost %v, want %v", after, d.Spec().ClockSetOverheadSec)
	}
	// Redundant set is free (drivers skip it).
	if err := d.SetAppClock(low); err != nil {
		t.Fatal(err)
	}
	if d.Now() != after {
		t.Fatal("redundant clock set consumed time")
	}
	if d.ClockSetCount() != 1 {
		t.Fatalf("clock set count %d, want 1", d.ClockSetCount())
	}
}

func TestResetAppClockRestoresDefault(t *testing.T) {
	t.Parallel()
	d := NewDevice(V100())
	if err := d.SetAppClock(d.Spec().MinCoreMHz()); err != nil {
		t.Fatal(err)
	}
	d.ResetAppClock()
	if d.AppClockMHz() != d.Spec().DefaultCoreMHz {
		t.Fatalf("reset left clock at %d, want default %d", d.AppClockMHz(), d.Spec().DefaultCoreMHz)
	}
	// MI100 resets to auto.
	m := NewDevice(MI100())
	if err := m.SetAppClock(700); err != nil {
		t.Fatal(err)
	}
	m.ResetAppClock()
	if m.AppClockMHz() != 0 {
		t.Fatalf("MI100 reset left clock pinned at %d", m.AppClockMHz())
	}
}

func TestEnergyBetweenMatchesKernelEnergy(t *testing.T) {
	t.Parallel()
	d := NewDevice(V100())
	r, err := d.ExecuteKernel(memoryBoundWL())
	if err != nil {
		t.Fatal(err)
	}
	got := d.EnergyBetween(r.Start, r.End)
	if math.Abs(got-r.EnergyJ) > 1e-9*r.EnergyJ {
		t.Fatalf("EnergyBetween = %v, kernel energy = %v", got, r.EnergyJ)
	}
}

func TestEnergyIncludesIdlePower(t *testing.T) {
	t.Parallel()
	d := NewDevice(V100())
	d.AdvanceIdle(2.0)
	got := d.EnergyBetween(0, 2.0)
	want := 2.0 * d.Spec().IdlePowerW
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("idle energy %v, want %v", got, want)
	}
}

// Property: energy integration is additive over adjacent intervals.
func TestEnergyBetweenAdditivity(t *testing.T) {
	t.Parallel()
	d := NewDevice(V100())
	for i := 0; i < 5; i++ {
		if _, err := d.ExecuteKernel(memoryBoundWL()); err != nil {
			t.Fatal(err)
		}
		d.AdvanceIdle(0.001)
	}
	end := d.Now()
	f := func(aFrac, bFrac float64) bool {
		a := math.Abs(math.Mod(aFrac, 1)) * end
		b := math.Abs(math.Mod(bFrac, 1)) * end
		if a > b {
			a, b = b, a
		}
		mid := (a + b) / 2
		whole := d.EnergyBetween(a, b)
		parts := d.EnergyBetween(a, mid) + d.EnergyBetween(mid, b)
		return math.Abs(whole-parts) <= 1e-9*(1+math.Abs(whole))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampledEnergyConvergesForLongIntervals(t *testing.T) {
	t.Parallel()
	d := NewDevice(V100())
	// A long busy stretch: many memory-bound kernels back to back.
	for i := 0; i < 200; i++ {
		if _, err := d.ExecuteKernel(memoryBoundWL()); err != nil {
			t.Fatal(err)
		}
	}
	t0, t1 := 0.0, d.Now()
	if t1 < 0.01 {
		t.Fatalf("busy stretch too short (%vs) to test sampling", t1)
	}
	exact := d.EnergyBetween(t0, t1)
	sampled := d.SampledEnergyBetween(t0, t1, 0.0005)
	if rel := math.Abs(sampled-exact) / exact; rel > 0.05 {
		t.Fatalf("sampled energy off by %.1f%% on a long interval", 100*rel)
	}
}

// TestSampledEnergyInaccurateForShortKernels reproduces the §4.4
// limitation: kernels much shorter than the sampling period cannot be
// profiled accurately.
func TestSampledEnergyInaccurateForShortKernels(t *testing.T) {
	t.Parallel()
	d := NewDevice(V100())
	tiny := Workload{Name: "tiny", Items: 1 << 10, FloatOps: 10, GlobalBytes: 4}
	r, err := d.ExecuteKernel(tiny)
	if err != nil {
		t.Fatal(err)
	}
	period := 0.015 // 15 ms, per Burtscher et al. as cited by the paper
	if r.End-r.Start >= period {
		t.Fatalf("test workload not short enough: %vs", r.End-r.Start)
	}
	sampled := d.SampledEnergyBetween(r.Start, r.End, period)
	// With at most zero or one sample tick inside the kernel, the
	// estimate is either ~0 or wildly overscaled.
	if rel := math.Abs(sampled-r.EnergyJ) / r.EnergyJ; rel < 0.5 {
		t.Fatalf("short-kernel sampling unexpectedly accurate (%.1f%% error)", 100*rel)
	}
}

// powerAt reads the instantaneous board power at virtual time t, the
// trace that SampledEnergyBetween polls.
func powerAt(d *Device, t float64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.powerAtLocked(t)
}

func TestPowerAtIdentifiesBusyAndIdle(t *testing.T) {
	t.Parallel()
	d := NewDevice(V100())
	r, err := d.ExecuteKernel(computeBoundWL())
	if err != nil {
		t.Fatal(err)
	}
	d.AdvanceIdle(1.0)
	mid := (r.Start + r.End) / 2
	if got := powerAt(d, mid); got != r.AvgPowerW {
		t.Fatalf("PowerAt(busy) = %v, want %v", got, r.AvgPowerW)
	}
	if got := powerAt(d, r.End+0.5); got != d.Spec().IdlePowerW {
		t.Fatalf("PowerAt(idle) = %v, want idle %v", got, d.Spec().IdlePowerW)
	}
}

// TestVendorCall pins the one vendor-call fault path: the site is
// qualified by the device label, or by gpu<idx> when unlabelled; an
// injected delay stalls the timeline by exactly the delay; an injected
// error is returned and counted; and the call counter equals the
// injector's CallCount for the qualified site.
func TestVendorCall(t *testing.T) {
	t.Parallel()
	errTimeout := errors.New("driver timeout")
	in := fault.New(1,
		fault.Rule{Site: "lib.stall", DelaySec: 0.25},
		fault.Rule{Site: "lib.fail", After: 1, Err: errTimeout},
	)
	reg := telemetry.NewRegistry()
	labelled, unlabelled := NewDevice(V100()), NewDevice(V100())
	labelled.SetLabel("node0/gpu1")
	for _, d := range []*Device{labelled, unlabelled} {
		d.SetFaultInjector(in)
		d.SetTelemetry(reg)
	}

	for i := 0; i < 2; i++ {
		before := labelled.Now()
		if err := labelled.VendorCall("lib", "lib.stall", 0); err != nil {
			t.Fatalf("delay-only call returned %v", err)
		}
		if got := labelled.Now() - before; got != 0.25 {
			t.Fatalf("injected 0.25 s delay advanced Now by %v", got)
		}
	}
	for i := 0; i < 3; i++ {
		err := unlabelled.VendorCall("lib", "lib.fail", 3)
		if i == 0 && err != nil {
			t.Fatalf("call before the rule's after= window failed: %v", err)
		}
		if i > 0 && !errors.Is(err, errTimeout) {
			t.Fatalf("call %d: got %v, want the injected error", i+1, err)
		}
	}
	if unlabelled.Now() != 0 {
		t.Fatalf("error-only calls advanced Now to %v", unlabelled.Now())
	}

	snap := reg.Snapshot()
	for _, c := range []struct {
		site, call, device string
		calls, faults      int64
	}{
		{"lib.stall", "stall", "node0/gpu1", 2, 0},
		{"lib.fail", "fail", "gpu3", 3, 2},
	} {
		labels := []string{"lib", "lib", "call", c.call, "device", c.device}
		calls := snap.CounterValue("synergy_vendor_calls_total", labels...)
		if calls != c.calls || calls != in.CallCount(c.site+":"+c.device) {
			t.Errorf("%s on %s: calls counter %d, injector CallCount %d, want %d",
				c.site, c.device, calls, in.CallCount(c.site+":"+c.device), c.calls)
		}
		if faults := snap.CounterValue("synergy_vendor_faults_total", labels...); faults != c.faults {
			t.Errorf("%s on %s: faults counter %d, want %d", c.site, c.device, faults, c.faults)
		}
	}
}

func TestAdvanceIdlePanicsOnNegative(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("negative idle advance did not panic")
		}
	}()
	NewDevice(V100()).AdvanceIdle(-1)
}

func TestDeviceConcurrentAccess(t *testing.T) {
	t.Parallel()
	d := NewDevice(V100())
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			var err error
			for i := 0; i < 50; i++ {
				if _, e := d.ExecuteKernel(memoryBoundWL()); e != nil {
					err = e
					break
				}
				d.EnergyBetween(0, d.Now())
			}
			done <- err
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if d.KernelCount() != 400 {
		t.Fatalf("kernel count %d, want 400", d.KernelCount())
	}
}
