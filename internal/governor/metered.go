package governor

import (
	"fmt"

	"synergy/internal/power"
	"synergy/internal/resilience"
	"synergy/internal/telemetry"
)

// ApplyFrequencyMetered is ApplyFrequency behind a per-device circuit
// breaker, with telemetry. When the breaker is open the governor does
// not burn the retry budget at all: the call degrades immediately (the
// queue runs at current clocks and records the forfeited saving) with
// zero SetCoreFreq attempts and zero backoff. Otherwise the attempt
// sequence runs as usual and its outcome feeds the breaker — only an
// applied clock set counts as healthy; a denial (degraded) or an
// exhausted retry budget counts as a failure, so denial storms and
// flaky drivers both trip the breaker and stop consuming attempts while
// the device is unhealthy.
//
// Breaker time is the device's virtual clock (power.Manager.DeviceNow),
// so cool-downs elapse with simulated work, never wall time. A nil
// breaker disables the guard.
//
// The outcome of every clock-set attempt sequence is recorded against
// the device label; a nil registry records nothing (every telemetry
// method is nil-safe), so with a nil registry and a nil breaker this
// is exactly ApplyFrequency.
//
// The emitted counters satisfy an exact identity the cross-validation
// suite asserts: attempts - retries = applied + denied + exhausted
// (each sequence that reaches the vendor library makes 1 + retries
// attempts and ends in exactly one of the three outcomes; breaker
// short-circuits make no attempts at all).
func ApplyFrequencyMetered(pm power.Manager, coreMHz int, pol RetryPolicy, br *resilience.Breaker, tel *telemetry.Registry, device string) ApplyResult {
	if br != nil && !br.Allow(pm.DeviceNow()) {
		tel.Counter("synergy_clock_set_short_circuits_total", "device", device).Inc()
		return ApplyResult{
			Degraded: true,
			Err: fmt.Errorf("governor: pinning %d MHz skipped, device %q unhealthy: %w",
				coreMHz, br.Name(), resilience.ErrOpen),
		}
	}
	res := ApplyFrequency(pm, coreMHz, pol)
	if br != nil {
		now := pm.DeviceNow()
		if res.Applied {
			br.RecordSuccess(now)
		} else {
			br.RecordFailure(now)
		}
	}
	tel.Counter("synergy_clock_set_attempts_total", "device", device).Add(int64(res.Attempts))
	if res.Attempts > 1 {
		tel.Counter("synergy_clock_set_retries_total", "device", device).Add(int64(res.Attempts - 1))
	}
	switch {
	case res.Applied:
		tel.Counter("synergy_clock_sets_applied_total", "device", device).Inc()
	case res.Degraded:
		tel.Counter("synergy_clock_sets_denied_total", "device", device).Inc()
	default:
		tel.Counter("synergy_clock_sets_exhausted_total", "device", device).Inc()
	}
	if res.BackoffSec > 0 {
		tel.Histogram("synergy_clock_set_backoff_seconds", telemetry.TimeBuckets, "device", device).
			ObserveAt(res.BackoffSec, pm.DeviceNow())
	}
	return res
}
