// Package sweep provides the shared frequency-sweep engine: every
// ground-truth evaluation of a (device spec × kernel × launch size)
// triple across the device's frequency table goes through one
// concurrency-safe service. The engine fans the per-frequency
// evaluations out over a bounded worker pool, memoizes completed sweeps
// under a content key on an internal/memo cache (bounded LRU,
// singleflight) — so the figures, target selections and ML training sets
// that are all derived from the same sweeps share one computation
// instead of re-running it serially at every call site.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/compile"
	"synergy/internal/memo"
	"synergy/internal/metrics"
	"synergy/internal/telemetry"
)

// Key is the content key a memoized sweep is stored under: the device
// identity, the kernel fingerprint (a hash of its full disassembly, so
// any change to the instruction stream, parameters or traffic factor
// yields a new key) and the launch size.
type Key struct {
	Device string
	Kernel string
	Items  int64
}

// String renders the key for diagnostics.
func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%d", k.Device, k.Kernel, k.Items)
}

// specKey identifies a device spec: the name plus the shape of its
// frequency table, so two specs sharing a name but different clock
// tables cannot alias in the cache.
func specKey(s *hw.Spec) string {
	return fmt.Sprintf("%s/%d@%d-%d/base%d",
		s.Name, len(s.CoreFreqsMHz), s.MinCoreMHz(), s.MaxCoreMHz(), s.BaselineCoreMHz())
}

// Engine is a concurrency-safe, memoizing parallel sweep service.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	workers int
	sweeps  *memo.Cache[Key, *metrics.Sweep]
	tel     atomic.Pointer[telemetry.Registry]
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the evaluation pool to n workers (n >= 1). One
// worker reproduces the serial evaluation order exactly; the default is
// GOMAXPROCS.
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
// Evaluations() and the eviction counter equals Evictions(); failed
// evaluations count as neither (they are not memoized).
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
// Its kernel component is kernelir.Fingerprint, the identity the
// compiled-program cache keys on too.
func KeyFor(spec *hw.Spec, k *kernelir.Kernel, items int64) Key {
	return Key{Device: specKey(spec), Kernel: kernelir.Fingerprint(k), Items: items}
}

// GroundTruth measures (through the device model) the per-item
// time/energy of the kernel at every supported frequency. Points carry
// per-item units: ns in TimeSec, nJ in EnergyJ — target selection is
// invariant to this uniform scaling. Results are memoized; concurrent
// callers of the same key share one computation. The returned sweep is
// a private copy the caller may use freely.
func (e *Engine) GroundTruth(spec *hw.Spec, k *kernelir.Kernel, items int64) (*metrics.Sweep, error) {
	return e.GroundTruthContext(context.Background(), spec, k, items)
}

// GroundTruthContext is GroundTruth with cancellation: a canceled
// context abandons the request (waiters stop waiting; a canceled
// evaluation stops scheduling its remaining frequency points and is not
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
	tel := e.tel.Load()
	missed := false
	sw, err := e.sweeps.Get(ctx, KeyFor(spec, k, items), func() (*metrics.Sweep, error) {
		missed = true
		sw, err := e.evaluate(ctx, spec, k, items)
		if err == nil {
			tel.Counter("synergy_sweep_requests_total", "result", "miss").Inc()
		}
		return sw, err
	})
	if !missed {
		tel.Counter("synergy_sweep_requests_total", "result", "hit").Inc()
	}
	if err != nil {
		return nil, err
	}
	return cloneSweep(sw), nil
}

// evaluate computes one sweep, fanning the frequency table out over the
// worker pool. The per-point arithmetic matches the historical serial
// path exactly, so parallel results are bit-identical to serial ones.
func (e *Engine) evaluate(ctx context.Context, spec *hw.Spec, k *kernelir.Kernel, items int64) (*metrics.Sweep, error) {
	// Go through the compiled-program cache: the program carries the
	// feature vector extracted at compile time, so repeated sweeps of the
	// same kernel skip re-walking the body. Compile and KernelWorkload
	// both bottom out in Validate, so error behaviour is unchanged.
	prog, err := compile.Cached(k)
	if err != nil {
		return nil, err
	}
	w := prog.Workload(items)
	pts := make([]metrics.Point, len(spec.CoreFreqsMHz))
	err = e.ForEachContext(ctx, len(pts), func(i int) error {
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

// ForEach runs fn(0..n-1) across the engine's worker pool and returns
// the first error (remaining indices are skipped once an error occurs).
// It is the bounded parallel-for the engine itself uses for frequency
// fan-out, exported so batch callers (prefetching a benchmark suite,
// characterising many kernels) can share the same bound.
func (e *Engine) ForEach(n int, fn func(i int) error) error {
	return e.ForEachContext(context.Background(), n, fn)
}

// ForEachContext is ForEach with cancellation: once the context is
// canceled no further indices are scheduled, in-flight callbacks finish,
// and the context error is returned (unless a callback failed first).
func (e *Engine) ForEachContext(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
		failed  atomic.Bool
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstEr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return firstEr
	}
	return ctx.Err()
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

// cloneSweep returns an independent copy so memoized points can never
// be mutated by a caller.
func cloneSweep(s *metrics.Sweep) *metrics.Sweep {
	cp := *s
	cp.Points = make([]metrics.Point, len(s.Points))
	copy(cp.Points, s.Points)
	return &cp
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
