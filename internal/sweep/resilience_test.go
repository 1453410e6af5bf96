package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
	"synergy/internal/telemetry"
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

// countdownCtx is a context whose Err reports Canceled from the call
// after its first n; checks counts the calls. It is safe for the
// concurrent checks of a pooled sweep.
type countdownCtx struct {
	context.Context
	n      int64
	checks atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.checks.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// TestCanceledSweepStopsMidTable: an evaluation checks its context
// before every clock point, so a sweep canceled part-way through the
// table stops there instead of finishing it. One worker stops at the
// first canceled check; each further worker may make one more.
func TestCanceledSweepStopsMidTable(t *testing.T) {
	t.Parallel()
	b, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ctx := &countdownCtx{Context: context.Background(), n: 5}
		eng := NewEngine(WithWorkers(workers))
		if _, err := eng.evaluate(ctx, hw.V100(), b.Kernel, b.CharItems); !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: err = %v, want context.Canceled", workers, err)
		}
		if got, limit := ctx.checks.Load(), int64(5+workers); got < 6 || got > limit {
			t.Fatalf("%d workers: evaluation checked its context %d times, want 6..%d (5 points, then the canceled checks)", workers, got, limit)
		}
	}
}

// TestExpiredWaiterCountsAsNeither: a waiter whose context expires while
// another caller's computation is in flight fails, and the request
// counters record neither a hit nor a miss for it.
func TestExpiredWaiterCountsAsNeither(t *testing.T) {
	t.Parallel()
	spec := hw.V100()
	b, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	reg := telemetry.NewRegistry()
	eng.SetTelemetry(reg)
	// The hook runs before the computation's waiters are released, so
	// blocking in it holds the computation in flight.
	entered, release := make(chan struct{}), make(chan struct{})
	eng.SetHook(func(Key) {
		close(entered)
		<-release
	})
	done := make(chan error, 1)
	go func() {
		_, err := eng.GroundTruth(spec, b.Kernel, b.CharItems)
		done <- err
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, waitErr := eng.GroundTruthContext(ctx, spec, b.Kernel, b.CharItems)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !errors.Is(waitErr, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want context.DeadlineExceeded", waitErr)
	}
	snap := reg.Snapshot()
	hits := snap.CounterValue("synergy_sweep_requests_total", "result", "hit")
	misses := snap.CounterValue("synergy_sweep_requests_total", "result", "miss")
	if hits != 0 || misses != 1 {
		t.Errorf("hit/miss counters = %d/%d, want 0/1 (the expired waiter counts as neither)", hits, misses)
	}
}
