// Package fault is a seeded, deterministic fault-injection subsystem for
// the simulated stack. Every layer that can fail in production — the
// vendor management libraries (internal/nvml, internal/rocmsmi), the
// interconnect (internal/mpi), the scheduler (internal/slurm) and the
// SYCL runtime (internal/sycl) — exposes named injection sites and
// consults an attached Injector before performing the real operation.
//
// # Determinism contract
//
// Whether a rule fires on the n-th call at a site is a pure function of
// (seed, qualified site, call index, rule index): the decision is drawn
// from a counter-based hash, never from shared mutable RNG state. Call
// indices are counted per qualified site, and in this codebase each
// qualified site (a device, a rank, a node) is only ever exercised from
// one goroutine at a time, so two runs of the same workload with the
// same seed and scenario produce the identical failure trace regardless
// of goroutine interleaving. Trace returns events sorted by (site, call
// index) so traces compare with reflect.DeepEqual.
//
// # Sites
//
// A call site is "base" or "base:qualifier", e.g.
// "nvml.set_app_clocks:node0/gpu1". A rule whose Site has no qualifier
// matches every qualifier of that base site; a rule with a qualifier
// matches exactly. Rule state (the After/Count bookkeeping) is tracked
// per qualified site, which keeps one-shot faults deterministic: "count=1"
// means once per device/rank/node, not once globally.
package fault

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the generic injected failure, used when a scenario rule
// names no specific error.
var ErrInjected = errors.New("fault: injected failure")

// Rule configures one fault at one site.
type Rule struct {
	// Site is a base site ("nvml.set_app_clocks") matching every
	// qualifier, or an exact qualified site ("mpi.send:r3").
	Site string
	// Prob is the firing probability per eligible call. 0 means always
	// (the convenient zero value); values >= 1 also always fire.
	Prob float64
	// After skips the first After calls at each qualified site.
	After int
	// Count bounds firings per qualified site: 1 is a one-shot fault,
	// 0 is sticky (unlimited).
	Count int
	// Err is the injected error; nil makes the rule delay-only.
	Err error
	// DelaySec is injected virtual latency, applied whenever the rule
	// fires (alone or together with Err).
	DelaySec float64
}

// Event is one fired fault, as recorded in the trace.
type Event struct {
	// Site is the qualified call site.
	Site string
	// Call is the 1-based call index at the site when the fault fired.
	Call int64
	// Rule is the configured rule site that fired.
	Rule string
	// Err is the injected error text ("" for delay-only rules).
	Err string
	// DelaySec is the injected latency.
	DelaySec float64
}

// Scenario is a named, ordered set of rules (a failure script).
type Scenario struct {
	Name  string
	Rules []Rule
}

// Injector holds the active rules and the per-site call counters. The
// zero value of *Injector (nil) is a valid no-op injector: every layer
// calls Check through a possibly-nil pointer.
type Injector struct {
	seed int64

	mu     sync.Mutex
	rules  []Rule
	counts map[string]int64         // calls per qualified site
	fired  map[string]map[int]int64 // firings per qualified site, per rule
	trace  []Event
}

// New creates an injector with the given seed and initial rules.
func New(seed int64, rules ...Rule) *Injector {
	in := &Injector{seed: seed}
	in.resetLocked()
	in.rules = append(in.rules, rules...)
	return in
}

// NewFromScenario creates an injector running a scenario script.
func NewFromScenario(seed int64, sc Scenario) *Injector {
	return New(seed, sc.Rules...)
}

// Seed returns the injector's seed.
func (in *Injector) Seed() int64 { return in.seed }

func (in *Injector) resetLocked() {
	in.counts = map[string]int64{}
	in.fired = map[string]map[int]int64{}
	in.trace = nil
}

// Reset clears all call counters, rule state and the trace, keeping the
// rules — the next run replays the identical fault sequence.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.resetLocked()
}

// match reports whether a configured rule site matches a call site.
func match(rule, site string) bool {
	if rule == site {
		return true
	}
	if i := strings.IndexByte(site, ':'); i >= 0 {
		return rule == site[:i]
	}
	return false
}

// u01 draws the deterministic uniform variate for (site, call, rule).
func (in *Injector) u01(site string, call int64, rule int) float64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(in.seed))
	h.Write([]byte(site))
	put(uint64(call))
	put(uint64(rule))
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// Check consults the rules for one call at the site. It returns the
// injected virtual latency (0 when none) and the injected error (nil
// when none); when several rules fire on the same call their delays
// accumulate and the first error wins. Check on a nil injector is a
// no-op, so call sites need no nil guard.
func (in *Injector) Check(site string) (delaySec float64, err error) {
	if in == nil {
		return 0, nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.counts[site] + 1
	in.counts[site] = n
	for i := range in.rules {
		r := &in.rules[i]
		if !match(r.Site, site) {
			continue
		}
		if n <= int64(r.After) {
			continue
		}
		if r.Count > 0 && in.fired[site][i] >= int64(r.Count) {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && in.u01(site, n, i) >= r.Prob {
			continue
		}
		if in.fired[site] == nil {
			in.fired[site] = map[int]int64{}
		}
		in.fired[site][i]++
		delaySec += r.DelaySec
		if err == nil {
			err = r.Err
		}
		errText := ""
		if r.Err != nil {
			errText = r.Err.Error()
		}
		in.trace = append(in.trace, Event{
			Site: site, Call: n, Rule: r.Site, Err: errText, DelaySec: r.DelaySec,
		})
	}
	return delaySec, err
}

// SleepContext sleeps an injected delay in *real* time, returning early
// with the context's error if it is canceled first. The cluster layers
// apply injected delays to their device's virtual timeline; layers that
// live on the wall clock (the serve daemon) burn the delay here so that
// injected latency can actually push a request past its deadline.
func SleepContext(ctx context.Context, sec float64) error {
	if sec <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(time.Duration(sec * float64(time.Second)))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CallCount returns the number of Check calls seen at the qualified site.
func (in *Injector) CallCount(site string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[site]
}

// Trace returns the fired faults sorted by (site, call index) — a stable
// order under goroutine interleaving, so identical seeds yield traces
// that compare equal with reflect.DeepEqual.
func (in *Injector) Trace() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	out := make([]Event, len(in.trace))
	copy(out, in.trace)
	in.mu.Unlock()
	// Stable: two rules firing on the same Check call tie on every key
	// below (Rule records the configured site, which may be identical);
	// their in-trace order is the deterministic rule-index order, which
	// an unstable sort would scramble.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		if out[i].Call != out[j].Call {
			return out[i].Call < out[j].Call
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// --- named-error registry ---
//
// Scenario scripts reference errors by name ("nvml.not_permitted");
// packages register their sentinel errors at init time so that injected
// errors satisfy errors.Is checks against the real sentinels.

var (
	regMu    sync.Mutex
	registry = map[string]error{"fault.injected": ErrInjected}
)

// RegisterError binds a scenario-script name to a sentinel error.
// Re-registering a name overwrites the previous binding.
func RegisterError(name string, err error) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = err
}

// NamedError looks a registered error up by name.
func NamedError(name string) (error, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	err, ok := registry[name]
	return err, ok
}

// ParseScenario parses a scenario script: one rule per line,
//
//	<site> [p=<0..1>] [after=<n>] [count=<n>] [delay=<duration>] [err=<name>]
//
// Blank lines and #-comments are skipped. err names must have been
// registered with RegisterError (every simulated layer registers its
// sentinels at init). A rule with neither err nor delay injects the
// generic ErrInjected.
func ParseScenario(name, text string) (Scenario, error) {
	sc := Scenario{Name: name}
	for lineNo, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		r := Rule{Site: fields[0]}
		explicit := false
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return Scenario{}, fmt.Errorf("fault: line %d: malformed field %q", lineNo+1, f)
			}
			switch k {
			case "p":
				p, err := strconv.ParseFloat(v, 64)
				if err != nil || p < 0 || p > 1 {
					return Scenario{}, fmt.Errorf("fault: line %d: bad probability %q", lineNo+1, v)
				}
				r.Prob = p
			case "after":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return Scenario{}, fmt.Errorf("fault: line %d: bad after %q", lineNo+1, v)
				}
				r.After = n
			case "count":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return Scenario{}, fmt.Errorf("fault: line %d: bad count %q", lineNo+1, v)
				}
				r.Count = n
			case "delay":
				d, err := time.ParseDuration(v)
				if err != nil || d < 0 {
					return Scenario{}, fmt.Errorf("fault: line %d: bad delay %q", lineNo+1, v)
				}
				r.DelaySec = d.Seconds()
				explicit = true
			case "err":
				e, ok := NamedError(v)
				if !ok {
					return Scenario{}, fmt.Errorf("fault: line %d: unregistered error %q", lineNo+1, v)
				}
				r.Err = e
				explicit = true
			default:
				return Scenario{}, fmt.Errorf("fault: line %d: unknown field %q", lineNo+1, k)
			}
		}
		if !explicit {
			r.Err = ErrInjected
		}
		sc.Rules = append(sc.Rules, r)
	}
	return sc, nil
}
