// Package sweep provides the shared frequency-sweep engine: every
// ground-truth evaluation of a (device spec × kernel × launch size)
// triple across the device's frequency table goes through one
// concurrency-safe service. A sweep runs the kernel's feature workload
// (features.KernelWorkload) through the device model at each clock of
// the table, fanned out with ForEach, and is memoized under a content
// key on an internal/memo cache (bounded LRU, singleflight) — so the
// figures, target selections and ML training sets that are all derived
// from the same sweeps share one computation instead of re-running it
// at every call site. Batch callers fan whole sweeps out across kernels
// with ForEach and Prefetch too.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/memo"
	"synergy/internal/metrics"
	"synergy/internal/telemetry"
)

// Key is the content key a memoized sweep is stored under: the device
// spec's name and clock-table shape (length, min, max and baseline MHz,
// so two specs sharing a name but not a table cannot alias), the kernel
// fingerprint (a hash of its full disassembly, so any change to the
// instruction stream, parameters or traffic factor yields a new key) and
// the launch size. Building one formats nothing.
type Key struct {
	Device                  string
	Freqs                   int
	MinMHz, MaxMHz, BaseMHz int
	Kernel                  string
	Items                   int64
}

// String renders the key for diagnostics.
func (k Key) String() string {
	return fmt.Sprintf("%s/%d@%d-%d/base%d/%s/%d",
		k.Device, k.Freqs, k.MinMHz, k.MaxMHz, k.BaseMHz, k.Kernel, k.Items)
}

// Engine is a concurrency-safe, memoizing sweep service.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	workers int
	sweeps  *memo.Cache[Key, *metrics.Sweep]
	tel     atomic.Pointer[telemetry.Registry]
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds ForEach, and so Prefetch and the points of one
// sweep, to n concurrent callbacks (n >= 1); the default is GOMAXPROCS.
// One worker runs the callbacks in index order.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n >= 1 {
			e.workers = n
		}
	}
}

// NewEngine constructs an engine with an empty cache.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		workers: runtime.GOMAXPROCS(0),
		sweeps:  memo.New[Key, *metrics.Sweep](memo.Cap),
	}
	e.sweeps.SetEvictHook(func(Key) {
		e.tel.Load().Counter("synergy_sweep_evictions_total").Inc()
	})
	for _, o := range opts {
		o(e)
	}
	return e
}

// shared is the process-wide engine used by the package-level helpers;
// all production callers route through it, which is what makes repeated
// sweeps of the same (spec, kernel, items) free across subsystems.
var shared = NewEngine()

// Shared returns the process-wide engine.
func Shared() *Engine { return shared }

// SetHook registers fn to be called once per completed cache-miss
// evaluation, with the evaluated key (nil to remove). Hooks observe how
// often the engine really computes — the call-count assertion tools
// build on it.
func (e *Engine) SetHook(fn func(Key)) { e.sweeps.SetHook(fn) }

// SetTelemetry attaches a telemetry registry (nil detaches): requests
// are counted as synergy_sweep_requests_total{result="hit"|"miss"} —
// singleflight waiters count as hits, since they share the miss's
// computation — and LRU evictions as synergy_sweep_evictions_total.
// A miss is a completed computation, so the miss counter equals
// Evaluations() and the eviction counter equals Evictions(). Failed
// requests count as neither: a failed evaluation, a waiter whose shared
// computation failed and a waiter whose context expired first.
func (e *Engine) SetTelemetry(r *telemetry.Registry) { e.tel.Store(r) }

// Evaluations returns how many sweeps the engine has actually computed
// (cache misses). Requests served from the cache do not count.
func (e *Engine) Evaluations() int64 { return e.sweeps.Computes() }

// Evictions returns how many memoized sweeps the LRU bound has evicted.
func (e *Engine) Evictions() int64 { return e.sweeps.Evictions() }

// CacheSize returns the number of memoized sweeps.
func (e *Engine) CacheSize() int { return e.sweeps.Len() }

// Invalidate drops every memoized sweep. In-flight evaluations complete
// normally but are not re-inserted for new requesters. Invalidation is
// not eviction: the Evictions counter is untouched.
func (e *Engine) Invalidate() { e.sweeps.Reset() }

// KeyFor returns the content key the engine would use for a request.
// Its kernel component is kernelir.Fingerprint, the identity every
// kernel-keyed memo keys on.
func KeyFor(spec *hw.Spec, k *kernelir.Kernel, items int64) Key {
	return Key{
		Device: spec.Name, Freqs: len(spec.CoreFreqsMHz),
		MinMHz: spec.MinCoreMHz(), MaxMHz: spec.MaxCoreMHz(), BaseMHz: spec.BaselineCoreMHz(),
		Kernel: kernelir.Fingerprint(k), Items: items,
	}
}

// GroundTruth measures (through the device model) the per-item
// time/energy of the kernel at every supported frequency. Points carry
// per-item units: ns in TimeSec, nJ in EnergyJ — target selection is
// invariant to this uniform scaling. Results are memoized; concurrent
// callers of the same key share one computation. The returned sweep is
// read-only: it is the memoized value itself, shared by every caller of
// the key.
func (e *Engine) GroundTruth(spec *hw.Spec, k *kernelir.Kernel, items int64) (*metrics.Sweep, error) {
	return e.GroundTruthContext(context.Background(), spec, k, items)
}

// GroundTruthContext is GroundTruth with cancellation: a canceled
// context abandons the request (waiters stop waiting; a canceled
// evaluation stops before its next frequency point and is not
// memoized).
func (e *Engine) GroundTruthContext(ctx context.Context, spec *hw.Spec, k *kernelir.Kernel, items int64) (*metrics.Sweep, error) {
	if spec == nil || k == nil {
		return nil, fmt.Errorf("sweep: nil spec or kernel")
	}
	if items <= 0 {
		return nil, fmt.Errorf("sweep: kernel %q: launch size must be positive, got %d items", k.Name, items)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	missed := false
	sw, err := e.sweeps.Get(ctx, KeyFor(spec, k, items), func() (*metrics.Sweep, error) {
		missed = true
		return e.evaluate(ctx, spec, k, items)
	})
	if err != nil {
		return nil, err
	}
	result := "hit"
	if missed {
		result = "miss"
	}
	e.tel.Load().Counter("synergy_sweep_requests_total", "result", result).Inc()
	return sw, nil
}

// evaluate computes one sweep: the kernel's feature workload through the
// device model at each clock of the table, fanned out with ForEach so
// that a miss spreads over the CPUs rather than running on whichever
// one its caller happens to hold. Each point is a pure function of
// (workload, clock), so the result does not depend on the worker count.
// ctx is checked before each point, so a canceled sweep stops early.
func (e *Engine) evaluate(ctx context.Context, spec *hw.Spec, k *kernelir.Kernel, items int64) (*metrics.Sweep, error) {
	w, err := features.KernelWorkload(k, items)
	if err != nil {
		return nil, err
	}
	pts := make([]metrics.Point, len(spec.CoreFreqsMHz))
	err = e.ForEach(len(pts), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		f := spec.CoreFreqsMHz[i]
		m, err := spec.Evaluate(w, f)
		if err != nil {
			return err
		}
		pts[i] = metrics.Point{
			FreqMHz: f,
			TimeSec: m.TimeSec / float64(items) * 1e9,
			EnergyJ: m.EnergyJ / float64(items) * 1e9,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return metrics.NewSweep(pts, spec.BaselineCoreMHz())
}

// ForEach runs fn(0..n-1) on at most WithWorkers goroutines and returns
// the first error; once a callback fails no further indices are
// scheduled. A sweep fans its points out through it, and batch callers
// (prefetching a benchmark suite, characterising many kernels) fan
// whole sweeps out through it.
func (e *Engine) ForEach(n int, fn func(i int) error) error {
	workers := min(e.workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		failed  atomic.Bool
		firstEr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					if failed.CompareAndSwap(false, true) {
						firstEr = err
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}

// Prefetch warms the cache with the sweeps of every kernel at one
// launch size, computing whole sweeps concurrently. Subsequent
// GroundTruth calls for these keys are cache hits.
func (e *Engine) Prefetch(spec *hw.Spec, ks []*kernelir.Kernel, items int64) error {
	return e.ForEach(len(ks), func(i int) error {
		_, err := e.GroundTruth(spec, ks[i], items)
		return err
	})
}

// GroundTruth evaluates through the process-wide shared engine.
func GroundTruth(spec *hw.Spec, k *kernelir.Kernel, items int64) (*metrics.Sweep, error) {
	return shared.GroundTruth(spec, k, items)
}

// GroundTruthContext evaluates through the process-wide shared engine
// with cancellation (see Engine.GroundTruthContext).
func GroundTruthContext(ctx context.Context, spec *hw.Spec, k *kernelir.Kernel, items int64) (*metrics.Sweep, error) {
	return shared.GroundTruthContext(ctx, spec, k, items)
}

// Prefetch warms the process-wide shared engine.
func Prefetch(spec *hw.Spec, ks []*kernelir.Kernel, items int64) error {
	return shared.Prefetch(spec, ks, items)
}

// ForEach runs a bounded parallel-for on the shared engine's pool.
func ForEach(n int, fn func(i int) error) error {
	return shared.ForEach(n, fn)
}
