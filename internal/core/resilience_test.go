package core

import (
	"errors"
	"strings"
	"testing"

	"synergy/internal/fault"
	"synergy/internal/hw"
	"synergy/internal/nvml"
	"synergy/internal/power"
	"synergy/internal/resilience"
	"synergy/internal/sycl"
)

// flakyV100Queue builds a privileged queue whose NVML clock-set site
// fails with the given rules.
func flakyV100Queue(t *testing.T, rules ...fault.Rule) (*Queue, *sycl.Device) {
	t.Helper()
	dev := sycl.NewDevice(hw.V100())
	dev.HW().SetLabel("gpu0")
	if len(rules) > 0 {
		dev.HW().SetFaultInjector(fault.New(1, rules...))
	}
	pm, err := power.NewPrivilegedManager(dev.HW())
	if err != nil {
		t.Fatal(err)
	}
	return NewQueue(dev, pm), dev
}

// TestQueueDegradesWhileBreakerOpen: once the device's breaker opens,
// frequency-scaled submissions run at current clocks and record a
// DegradationEvent carrying the breaker diagnosis, without touching the
// vendor layer again.
func TestQueueDegradesWhileBreakerOpen(t *testing.T) {
	t.Parallel()
	q, dev := flakyV100Queue(t, fault.Rule{
		Site: nvml.SiteSetAppClocks, Err: nvml.ErrTimeout, // sticky flaky driver
	})
	reg := resilience.NewRegistry(resilience.Config{
		FailureThreshold: 1, CooldownSec: 1e9, HalfOpenSuccesses: 1,
	})
	q.SetBreaker(reg.Breaker("gpu0"))
	low := dev.HW().Spec().MinCoreMHz()
	k := streamKernel(t)
	args := streamArgs(64)

	// First submission exhausts the retry budget and trips the breaker:
	// the submission itself fails (terminal transient error).
	ev, err := q.SubmitWithFreq(0, low, func(h *sycl.Handler) { h.ParallelFor(64, k, args) })
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); !errors.Is(err, nvml.ErrTimeout) {
		t.Fatalf("first submission error = %v, want wrapped ErrTimeout", err)
	}
	if got := reg.Breaker("gpu0").Current(); got != resilience.Open {
		t.Fatalf("breaker %v after budget exhaustion, want open", got)
	}
	vendorCalls := dev.HW().FaultInjector().CallCount(nvml.SiteSetAppClocks + ":gpu0")

	// Subsequent submissions degrade: kernel runs, clocks untouched,
	// degradation recorded, vendor layer not consulted.
	ev, err = q.SubmitWithFreq(0, low, func(h *sycl.Handler) { h.ParallelFor(64, k, args) })
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatalf("degraded submission failed: %v", err)
	}
	degr := q.Degradations()
	if len(degr) != 1 {
		t.Fatalf("degradations = %d, want 1", len(degr))
	}
	d := degr[0]
	if d.Kernel != "stream" || d.WantMHz != low {
		t.Errorf("degradation %+v, want kernel=stream want=%d MHz", d, low)
	}
	if !strings.Contains(d.Reason, "circuit breaker open") {
		t.Errorf("degradation reason %q does not name the breaker", d.Reason)
	}
	if got := dev.HW().FaultInjector().CallCount(nvml.SiteSetAppClocks + ":gpu0"); got != vendorCalls {
		t.Errorf("open breaker reached the vendor layer (%d -> %d calls)", vendorCalls, got)
	}
	if mhz := dev.HW().AppClockMHz(); mhz == low {
		t.Errorf("clock pinned to %d MHz despite open breaker", mhz)
	}
	if n := dev.HW().KernelCount(); n != 1 {
		t.Errorf("kernels executed = %d, want 1 (degraded kernel still runs; the failed submission's does not)", n)
	}
}
