package sweep

import (
	"strings"
	"sync"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/memo"
	"synergy/internal/metrics"
	"synergy/internal/telemetry"
)

// referenceSweep replicates the historical serial ground-truth path
// byte for byte: one Evaluate per table entry, in order, per-item
// scaling applied with the identical expression.
func referenceSweep(t *testing.T, spec *hw.Spec, k *kernelir.Kernel, items int64) *metrics.Sweep {
	t.Helper()
	w, err := features.KernelWorkload(k, items)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]metrics.Point, len(spec.CoreFreqsMHz))
	for i, f := range spec.CoreFreqsMHz {
		m, err := spec.Evaluate(w, f)
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = metrics.Point{
			FreqMHz: f,
			TimeSec: m.TimeSec / float64(items) * 1e9,
			EnergyJ: m.EnergyJ / float64(items) * 1e9,
		}
	}
	s, err := metrics.NewSweep(pts, spec.BaselineCoreMHz())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sweepsIdentical(a, b *metrics.Sweep) bool {
	if a.Baseline != b.Baseline || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			return false
		}
	}
	return true
}

// TestGoldenEquivalenceSerialVsPooled proves the parallel engine
// returns bit-identical sweeps to the serial path for every device spec
// and every benchmark in the suite.
func TestGoldenEquivalenceSerialVsPooled(t *testing.T) {
	t.Parallel()
	for _, devName := range []string{"v100", "a100", "mi100", "xeon"} {
		spec, err := hw.SpecByName(devName)
		if err != nil {
			t.Fatal(err)
		}
		serial := NewEngine(WithWorkers(1))
		pooled := NewEngine(WithWorkers(8))
		for _, name := range benchsuite.Names() {
			b, err := benchsuite.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceSweep(t, spec, b.Kernel, b.CharItems)
			got1, err := serial.GroundTruth(spec, b.Kernel, b.CharItems)
			if err != nil {
				t.Fatalf("%s/%s serial: %v", devName, name, err)
			}
			got8, err := pooled.GroundTruth(spec, b.Kernel, b.CharItems)
			if err != nil {
				t.Fatalf("%s/%s pooled: %v", devName, name, err)
			}
			if !sweepsIdentical(want, got1) {
				t.Errorf("%s/%s: serial engine differs from reference", devName, name)
			}
			if !sweepsIdentical(want, got8) {
				t.Errorf("%s/%s: pooled engine differs from reference", devName, name)
			}
		}
	}
}

// TestMemoizationSecondRequestFree shows the second request for a key
// performs zero evaluations: the hook fires once and the evaluation
// counter stays at one, while both responses carry identical data.
func TestMemoizationSecondRequestFree(t *testing.T) {
	t.Parallel()
	spec := hw.V100()
	b, err := benchsuite.ByName("black_scholes")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	hookCalls := map[Key]int{}
	eng := NewEngine()
	eng.SetHook(func(k Key) {
		mu.Lock()
		hookCalls[k]++
		mu.Unlock()
	})
	first, err := eng.GroundTruth(spec, b.Kernel, b.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.GroundTruth(spec, b.Kernel, b.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Evaluations(); n != 1 {
		t.Errorf("evaluations = %d, want 1", n)
	}
	key := KeyFor(spec, b.Kernel, b.CharItems)
	if hookCalls[key] != 1 || len(hookCalls) != 1 {
		t.Errorf("hook calls = %v, want exactly one call for %s", hookCalls, key)
	}
	if !sweepsIdentical(first, second) {
		t.Error("cached sweep differs from computed sweep")
	}
	// Different launch size is a different content key.
	if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems/2); err != nil {
		t.Fatal(err)
	}
	if n := eng.Evaluations(); n != 2 {
		t.Errorf("evaluations after new key = %d, want 2", n)
	}
}

// TestSingleflightConcurrentCallers launches many goroutines on the
// same key and checks they share one computation (run under -race).
func TestSingleflightConcurrentCallers(t *testing.T) {
	t.Parallel()
	spec := hw.V100()
	b, err := benchsuite.ByName("matmul")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithWorkers(4))
	want := referenceSweep(t, spec, b.Kernel, b.CharItems)
	const callers = 16
	var wg sync.WaitGroup
	results := make([]*metrics.Sweep, callers)
	errs := make([]error, callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.GroundTruth(spec, b.Kernel, b.CharItems)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !sweepsIdentical(want, results[i]) {
			t.Errorf("caller %d: sweep differs from reference", i)
		}
	}
	if n := eng.Evaluations(); n != 1 {
		t.Errorf("evaluations = %d, want 1 (singleflight)", n)
	}
}

// TestConcurrentDistinctKeys exercises the cache under concurrent
// misses for different keys (race detector coverage of the entry map).
func TestConcurrentDistinctKeys(t *testing.T) {
	t.Parallel()
	spec := hw.MI100()
	names := benchsuite.Names()
	eng := NewEngine()
	err := eng.ForEach(len(names), func(i int) error {
		b, err := benchsuite.ByName(names[i])
		if err != nil {
			return err
		}
		_, err = eng.GroundTruth(spec, b.Kernel, b.CharItems)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Evaluations(); n != int64(len(names)) {
		t.Errorf("evaluations = %d, want %d", n, len(names))
	}
	if n := eng.CacheSize(); n != len(names) {
		t.Errorf("cache size = %d, want %d", n, len(names))
	}
}

// TestNonPositiveItemsRejected is the regression test for the ±Inf/NaN
// poisoning path: a non-positive launch size must fail loudly.
func TestNonPositiveItemsRejected(t *testing.T) {
	t.Parallel()
	spec := hw.V100()
	b, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	for _, items := range []int64{0, -1, -1 << 40} {
		_, err := eng.GroundTruth(spec, b.Kernel, items)
		if err == nil {
			t.Fatalf("items=%d: expected error", items)
		}
		if !strings.Contains(err.Error(), "launch size must be positive") {
			t.Errorf("items=%d: undescriptive error %q", items, err)
		}
	}
	if n := eng.Evaluations(); n != 0 {
		t.Errorf("rejected requests performed %d evaluations", n)
	}
}

// TestErrorsNotMemoized: a failing sweep must not poison the cache.
func TestErrorsNotMemoized(t *testing.T) {
	t.Parallel()
	// A kernel that performs no work fails workload validation.
	kb := kernelir.NewBuilder("noop")
	in := kb.BufferF32("in", kernelir.Read)
	_ = in
	k, err := kb.Build()
	if err != nil {
		// Builder may reject empty bodies outright; nothing to test then.
		t.Skipf("cannot build empty kernel: %v", err)
	}
	eng := NewEngine()
	if _, err := eng.GroundTruth(hw.V100(), k, 1<<10); err == nil {
		t.Skip("empty kernel unexpectedly evaluates; nothing to assert")
	}
	if n := eng.CacheSize(); n != 0 {
		t.Errorf("failed sweep left %d cache entries", n)
	}
}

// TestInvalidate drops memoized sweeps so the next request recomputes.
func TestInvalidate(t *testing.T) {
	t.Parallel()
	spec := hw.A100()
	b, err := benchsuite.ByName("median")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems); err != nil {
		t.Fatal(err)
	}
	eng.Invalidate()
	if n := eng.CacheSize(); n != 0 {
		t.Fatalf("cache size after invalidate = %d", n)
	}
	if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems); err != nil {
		t.Fatal(err)
	}
	if n := eng.Evaluations(); n != 2 {
		t.Errorf("evaluations = %d, want 2 after invalidation", n)
	}
}

// TestFingerprintContentSensitivity: distinct kernels get distinct
// fingerprints; the same kernel fingerprint is stable.
func TestFingerprintContentSensitivity(t *testing.T) {
	t.Parallel()
	a, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchsuite.ByName("matmul")
	if err != nil {
		t.Fatal(err)
	}
	spec := hw.V100()
	if KeyFor(spec, a.Kernel, 1) == KeyFor(spec, b.Kernel, 1) {
		t.Error("different kernels share a fingerprint")
	}
	if KeyFor(spec, a.Kernel, 1) != KeyFor(spec, a.Kernel, 1) {
		t.Error("fingerprint not stable")
	}
}

// TestTelemetryMatchesCounters: the request and eviction counters
// synergy-top reads agree with the engine's own — misses equal
// Evaluations, repeats count as hits, and evictions past the shared cap
// equal Evictions.
func TestTelemetryMatchesCounters(t *testing.T) {
	t.Parallel()
	spec := hw.V100()
	b, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithWorkers(1))
	reg := telemetry.NewRegistry()
	eng.SetTelemetry(reg)
	const keys = memo.Cap + 2
	for items := int64(1); items <= keys; items++ {
		if _, err := eng.GroundTruth(spec, b.Kernel, items); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.GroundTruth(spec, b.Kernel, keys); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	hits := snap.CounterValue("synergy_sweep_requests_total", "result", "hit")
	misses := snap.CounterValue("synergy_sweep_requests_total", "result", "miss")
	evictions := snap.CounterTotal("synergy_sweep_evictions_total")
	if hits != 1 || misses != keys || misses != eng.Evaluations() {
		t.Errorf("hit/miss counters = %d/%d, want 1/%d (evaluations %d)", hits, misses, keys, eng.Evaluations())
	}
	if evictions != 2 || evictions != eng.Evictions() {
		t.Errorf("eviction counter = %d, want 2 (engine reports %d)", evictions, eng.Evictions())
	}
}

// TestForEachPropagatesError: the parallel-for reports the failure.
func TestForEachPropagatesError(t *testing.T) {
	t.Parallel()
	eng := NewEngine(WithWorkers(4))
	wantErr := "boom at 7"
	err := eng.ForEach(32, func(i int) error {
		if i == 7 {
			return &indexError{msg: wantErr}
		}
		return nil
	})
	if err == nil || err.Error() != wantErr {
		t.Fatalf("error = %v, want %q", err, wantErr)
	}
}

type indexError struct{ msg string }

func (e *indexError) Error() string { return e.msg }
