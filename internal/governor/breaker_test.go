package governor

import (
	"errors"
	"testing"

	"synergy/internal/fault"
	"synergy/internal/nvml"
	"synergy/internal/resilience"
)

// TestGuardedNilBreakerIsPlainApply: a nil breaker delegates unchanged.
func TestGuardedNilBreakerIsPlainApply(t *testing.T) {
	t.Parallel()
	pm, dev := v100Manager(t, true)
	res := ApplyFrequencyMetered(pm, dev.Spec().MinCoreMHz(), DefaultRetryPolicy(), nil, nil, "")
	if !res.Applied || res.Err != nil {
		t.Fatalf("guarded apply = %+v, want applied", res)
	}
}

// TestGuardedBreakerTripsOnRepeatedFailures: every exhausted retry
// budget feeds the breaker; at the failure threshold it opens and the
// next call degrades with zero attempts and zero backoff.
func TestGuardedBreakerTripsOnRepeatedFailures(t *testing.T) {
	t.Parallel()
	pm, dev := v100Manager(t, true, fault.Rule{
		Site: nvml.SiteSetAppClocks, Err: nvml.ErrTimeout, // sticky flaky driver
	})
	cfg := resilience.Config{FailureThreshold: 3, CooldownSec: 100, HalfOpenSuccesses: 1}
	br := resilience.NewBreaker("gpu0", cfg)
	pol := DefaultRetryPolicy()
	for i := 0; i < cfg.FailureThreshold; i++ {
		res := ApplyFrequencyMetered(pm, 877, pol, br, nil, "")
		if res.Applied || res.Degraded {
			t.Fatalf("call %d: %+v, want terminal failure", i, res)
		}
		if res.Attempts != pol.MaxAttempts {
			t.Fatalf("call %d: attempts = %d, want %d", i, res.Attempts, pol.MaxAttempts)
		}
	}
	if br.Current() != resilience.Open {
		t.Fatalf("breaker %v after %d failures, want open", br.Current(), cfg.FailureThreshold)
	}
	before := dev.Now()
	calls := dev.FaultInjector().CallCount(nvml.SiteSetAppClocks + ":gpu0")
	res := ApplyFrequencyMetered(pm, 877, pol, br, nil, "")
	if !res.Degraded || !errors.Is(res.Err, resilience.ErrOpen) {
		t.Fatalf("open-breaker apply = %+v, want degraded with ErrOpen", res)
	}
	if res.Attempts != 0 || res.BackoffSec != 0 {
		t.Fatalf("open breaker burned attempts=%d backoff=%v", res.Attempts, res.BackoffSec)
	}
	if got := dev.FaultInjector().CallCount(nvml.SiteSetAppClocks + ":gpu0"); got != calls {
		t.Fatalf("open breaker still reached the vendor layer (%d -> %d calls)", calls, got)
	}
	if dev.Now() != before {
		t.Fatalf("open breaker advanced device time %v -> %v", before, dev.Now())
	}
}

// TestGuardedBreakerHalfOpenRecovery: after the virtual-time cool-down
// a probe call passes through; a successful probe closes the breaker.
func TestGuardedBreakerHalfOpenRecovery(t *testing.T) {
	t.Parallel()
	// Two transient storms of MaxAttempts each, then a healthy driver.
	pol := DefaultRetryPolicy()
	pm, dev := v100Manager(t, true, fault.Rule{
		Site: nvml.SiteSetAppClocks, Count: 2 * pol.MaxAttempts, Err: nvml.ErrTimeout,
	})
	cfg := resilience.Config{FailureThreshold: 2, CooldownSec: 0.25, HalfOpenSuccesses: 1}
	br := resilience.NewBreaker("gpu0", cfg)
	for i := 0; i < 2; i++ {
		if res := ApplyFrequencyMetered(pm, 877, pol, br, nil, ""); res.Applied {
			t.Fatalf("call %d unexpectedly applied", i)
		}
	}
	if br.Current() != resilience.Open {
		t.Fatalf("breaker %v, want open", br.Current())
	}
	// Cool-down elapses in device virtual time only.
	dev.AdvanceIdle(cfg.CooldownSec)
	res := ApplyFrequencyMetered(pm, dev.Spec().MinCoreMHz(), pol, br, nil, "")
	if !res.Applied {
		t.Fatalf("probe after cool-down = %+v, want applied", res)
	}
	if br.Current() != resilience.Closed {
		t.Fatalf("breaker %v after successful probe, want closed", br.Current())
	}
	// The half-open and re-close transitions are on the record.
	tr := br.Transitions()
	if len(tr) != 3 {
		t.Fatalf("transitions = %d, want 3 (open, half-open, closed): %v", len(tr), tr)
	}
	if tr[1].To != resilience.HalfOpen || tr[2].To != resilience.Closed {
		t.Fatalf("unexpected transition sequence %v", tr)
	}
}

// TestGuardedDenialStormTripsBreaker: permission-denial storms count as
// vendor-layer failures, so the breaker stops hammering a device that
// keeps refusing clock sets.
func TestGuardedDenialStormTripsBreaker(t *testing.T) {
	t.Parallel()
	pm, _ := v100Manager(t, false) // unprivileged: every set is denied
	cfg := resilience.Config{FailureThreshold: 2, CooldownSec: 1000, HalfOpenSuccesses: 1}
	br := resilience.NewBreaker("gpu0", cfg)
	pol := DefaultRetryPolicy()
	for i := 0; i < 2; i++ {
		res := ApplyFrequencyMetered(pm, 877, pol, br, nil, "")
		if !res.Degraded {
			t.Fatalf("call %d: %+v, want degraded", i, res)
		}
	}
	if br.Current() != resilience.Open {
		t.Fatalf("breaker %v after denial storm, want open", br.Current())
	}
	res := ApplyFrequencyMetered(pm, 877, pol, br, nil, "")
	if !res.Degraded || !errors.Is(res.Err, resilience.ErrOpen) {
		t.Fatalf("post-storm apply = %+v, want short-circuited degradation", res)
	}
}
