package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
)

// TestDefaultCapDoesNotEvict: the default cap is far above the whole
// benchmark suite across all device specs, so nothing is evicted in the
// existing flows.
func TestDefaultCapDoesNotEvict(t *testing.T) {
	t.Parallel()
	eng := NewEngine()
	for _, devName := range []string{"v100", "mi100"} {
		spec, err := hw.SpecByName(devName)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range benchsuite.Names() {
			b, err := benchsuite.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := eng.Evictions(); n != 0 {
		t.Fatalf("default cap evicted %d entries", n)
	}
}

// TestForEachContextCancelStopsScheduling: after cancellation, no new
// indices are dispatched — the canceled parallel-for completes quickly
// with the context error instead of grinding through the whole range.
func TestForEachContextCancelStopsScheduling(t *testing.T) {
	t.Parallel()
	eng := NewEngine(WithWorkers(4))
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	const n = 10_000
	err := eng.ForEachContext(ctx, n, func(i int) error {
		if started.Add(1) == 8 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The four workers may each have had one callback in flight at
	// cancellation; far fewer than n items must have started.
	if s := started.Load(); s >= n/2 {
		t.Fatalf("%d of %d items started after cancel", s, n)
	}
	cancel()
}

// TestForEachContextCallbackErrorWins: a callback failure is reported
// in preference to a later cancellation.
func TestForEachContextCallbackErrorWins(t *testing.T) {
	t.Parallel()
	eng := NewEngine(WithWorkers(2))
	boom := errors.New("boom")
	err := eng.ForEachContext(context.Background(), 16, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want callback error", err)
	}
}

// TestGroundTruthContextPreCanceled: a canceled context fails fast with
// no evaluation and no cache pollution.
func TestGroundTruthContextPreCanceled(t *testing.T) {
	t.Parallel()
	spec := hw.V100()
	b, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.GroundTruthContext(ctx, spec, b.Kernel, b.CharItems); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := eng.Evaluations(); n != 0 {
		t.Errorf("canceled request performed %d evaluations", n)
	}
	if n := eng.CacheSize(); n != 0 {
		t.Errorf("canceled request left %d cache entries", n)
	}
	// The engine stays healthy for later, uncanceled requests.
	if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems); err != nil {
		t.Fatal(err)
	}
}
