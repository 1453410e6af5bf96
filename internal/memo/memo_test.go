package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// counting returns a compute for key that records its calls.
func counting(calls map[string]int, key string) func() (string, error) {
	return func() (string, error) {
		calls[key]++
		return "v:" + key, nil
	}
}

func get(t *testing.T, c *Cache[string, string], key string, calls map[string]int) {
	t.Helper()
	v, err := c.Get(context.Background(), key, counting(calls, key))
	if err != nil || v != "v:"+key {
		t.Fatalf("Get(%s) = %q, %v", key, v, err)
	}
}

// TestLRUEvictionBoundsCache: with a cap of 2, three distinct keys evict
// the least recently used; re-requesting the evicted key recomputes,
// while the surviving keys stay free.
func TestLRUEvictionBoundsCache(t *testing.T) {
	c := New[string, string](2)
	calls := map[string]int{}
	for _, k := range []string{"a", "b", "c"} {
		get(t, c, k, calls)
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Fatalf("len %d, evictions %d, want 2 and 1", c.Len(), c.Evictions())
	}
	get(t, c, "b", calls)
	get(t, c, "c", calls)
	if c.Computes() != 3 {
		t.Fatalf("computes = %d, want 3 (recent keys served from cache)", c.Computes())
	}
	get(t, c, "a", calls)
	if calls["a"] != 2 || c.Computes() != 4 {
		t.Fatalf("evicted key computed %d times (computes %d), want 2 (4)", calls["a"], c.Computes())
	}
}

// TestLRUHitRefreshesRecency: touching the oldest key protects it from
// the next eviction.
func TestLRUHitRefreshesRecency(t *testing.T) {
	c := New[string, string](2)
	calls := map[string]int{}
	get(t, c, "a", calls)
	get(t, c, "b", calls)
	get(t, c, "a", calls) // a becomes MRU, so inserting c evicts b
	get(t, c, "c", calls)
	get(t, c, "a", calls)
	if calls["a"] != 1 || c.Computes() != 3 {
		t.Fatalf("refreshed key computed %d times (computes %d), want 1 (3)", calls["a"], c.Computes())
	}
	get(t, c, "b", calls)
	if calls["b"] != 2 {
		t.Fatalf("least recently used key computed %d times, want 2 (evicted)", calls["b"])
	}
}

// TestLRUBoundUnderChurn: the bound holds under churn of unique keys,
// and New raises a non-positive capacity to one entry.
func TestLRUBoundUnderChurn(t *testing.T) {
	c := New[int, int](8)
	for i := 0; i < 40; i++ {
		c.Get(context.Background(), i, func() (int, error) { return i, nil })
	}
	if c.Len() != 8 || c.Evictions() != 32 {
		t.Fatalf("len %d, evictions %d, want 8 and 32", c.Len(), c.Evictions())
	}
	one := New[int, int](0)
	for i := 0; i < 3; i++ {
		one.Get(context.Background(), i, func() (int, error) { return i, nil })
	}
	if one.Len() != 1 {
		t.Fatalf("cap-0 cache holds %d entries, want 1", one.Len())
	}
}

// TestSingleflight: many goroutines asking for one key share a single
// compute, all receive its value, every join counts as a hit, and the
// hook fires exactly once.
func TestSingleflight(t *testing.T) {
	c := New[string, *int](Cap)
	var mu sync.Mutex
	hooked := map[string]int{}
	c.SetHook(func(k string) {
		mu.Lock()
		hooked[k]++
		mu.Unlock()
	})
	release := make(chan struct{})
	computes := 0
	const goroutines = 64
	vals := make([]*int, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			v, err := c.Get(context.Background(), "k", func() (*int, error) {
				computes++ // only ever one compute: no lock needed
				<-release
				n := 7
				return &n, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	start.Done()
	for c.Hits() < goroutines-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	done.Wait()
	if computes != 1 || c.Computes() != 1 || c.Hits() != goroutines-1 {
		t.Fatalf("computes %d (counter %d), hits %d; want 1, 1, %d", computes, c.Computes(), c.Hits(), goroutines-1)
	}
	for i, v := range vals {
		if v != vals[0] {
			t.Fatalf("goroutine %d received a different value", i)
		}
	}
	if hooked["k"] != 1 || len(hooked) != 1 {
		t.Fatalf("hook calls = %v, want exactly one", hooked)
	}
}

// TestHookFiresBeforeWaitersRelease: a waiter that returns has already
// been preceded by the hook call for its compute.
func TestHookFiresBeforeWaitersRelease(t *testing.T) {
	c := New[string, int](Cap)
	hooked := make(chan struct{})
	c.SetHook(func(string) { close(hooked) })
	release := make(chan struct{})
	go c.Get(context.Background(), "k", func() (int, error) { <-release; return 1, nil })
	for c.Len() == 0 {
		time.Sleep(time.Millisecond)
	}
	waited := make(chan struct{})
	go func() {
		c.Get(context.Background(), "k", func() (int, error) { return 2, nil })
		close(waited)
	}()
	close(release)
	<-waited
	select {
	case <-hooked:
	default:
		t.Fatal("waiter released before the hook ran")
	}
}

// TestFailedComputeNotMemoized: an error reaches the caller, leaves no
// entry, fires no hook and counts as no compute; the next call retries.
func TestFailedComputeNotMemoized(t *testing.T) {
	c := New[string, int](Cap)
	c.SetHook(func(string) { t.Error("hook fired for a failed compute") })
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err := c.Get(context.Background(), "k", func() (int, error) { calls++; return 0, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if calls != 3 || c.Len() != 0 || c.Computes() != 0 {
		t.Fatalf("calls %d, len %d, computes %d; want 3, 0, 0", calls, c.Len(), c.Computes())
	}
}

// TestFailedComputeKeepsSuccessor: a compute that fails after its entry
// was evicted and the key re-inserted must not drop the successor.
func TestFailedComputeKeepsSuccessor(t *testing.T) {
	c := New[string, int](1)
	release := make(chan struct{})
	failed := make(chan error)
	go func() {
		_, err := c.Get(context.Background(), "a", func() (int, error) {
			<-release
			return 0, errors.New("late failure")
		})
		failed <- err
	}()
	for c.Len() == 0 {
		time.Sleep(time.Millisecond)
	}
	c.Get(context.Background(), "b", func() (int, error) { return 2, nil }) // evicts the in-flight a
	if v, err := c.Get(context.Background(), "a", func() (int, error) { return 1, nil }); v != 1 || err != nil {
		t.Fatalf("successor Get = %d, %v", v, err)
	}
	close(release)
	if err := <-failed; err == nil {
		t.Fatal("failed compute reported success")
	}
	v, err := c.Get(context.Background(), "a", func() (int, error) { return -1, nil })
	if v != 1 || err != nil || c.Computes() != 2 {
		t.Fatalf("successor dropped: Get = %d, %v; computes %d, want 1, nil, 2", v, err, c.Computes())
	}
}

// TestContext: ctx bounds only the wait on another caller's compute. A
// canceled waiter returns the context error promptly, a pre-canceled
// one does not wait at all, and a completed entry is served regardless
// of context state.
func TestContext(t *testing.T) {
	c := New[string, int](Cap)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		c.Get(context.Background(), "k", func() (int, error) { <-release; return 5, nil })
		close(done)
	}()
	for c.Len() == 0 {
		time.Sleep(time.Millisecond)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(canceled, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled waiter: err = %v, want context.Canceled", err)
	}
	waiting, cancelWait := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancelWait()
	if _, err := c.Get(waiting, "k", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiting caller: err = %v, want context.DeadlineExceeded", err)
	}
	close(release)
	<-done
	if v, err := c.Get(canceled, "k", nil); v != 5 || err != nil {
		t.Fatalf("completed entry under a canceled context = %d, %v; want 5, nil", v, err)
	}
	if c.Computes() != 1 || c.Hits() != 3 {
		t.Fatalf("computes %d, hits %d; want 1, 3", c.Computes(), c.Hits())
	}
}

// TestCountersExact: hits, computes and evictions count exactly, the
// evict hook sees every evicted key, and Reset drops entries without
// touching the counters.
func TestCountersExact(t *testing.T) {
	c := New[string, string](3)
	var evicted []string
	c.SetEvictHook(func(k string) { evicted = append(evicted, k) })
	calls := map[string]int{}
	for i := 0; i < 5; i++ {
		get(t, c, fmt.Sprint(i), calls)
		get(t, c, fmt.Sprint(i), calls)
	}
	if c.Hits() != 5 || c.Computes() != 5 || c.Evictions() != 2 {
		t.Fatalf("hits %d, computes %d, evictions %d; want 5, 5, 2", c.Hits(), c.Computes(), c.Evictions())
	}
	if fmt.Sprint(evicted) != "[0 1]" {
		t.Fatalf("evicted %v, want [0 1]", evicted)
	}
	c.Reset()
	if c.Len() != 0 || c.Hits() != 5 || c.Computes() != 5 || c.Evictions() != 2 {
		t.Fatalf("after Reset: len %d, counters %d/%d/%d", c.Len(), c.Hits(), c.Computes(), c.Evictions())
	}
	get(t, c, "4", calls)
	if calls["4"] != 2 {
		t.Fatalf("key computed %d times after Reset, want 2", calls["4"])
	}
}
