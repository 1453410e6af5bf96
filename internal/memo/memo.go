// Package memo is the one memoizing cache behind every kernel-keyed
// memo in the repository: the optimizer memo, the feature-extraction
// memo, the compiled-program cache and the sweep engine, all keyed on
// kernelir.Fingerprint. (A kernel keeps its own fingerprint; no memo
// maps kernels to it.) A Cache is a bounded LRU with singleflight
// lookups: concurrent requests for one key share a single compute,
// failed computes are not memoized, and hit, compute and eviction
// counters are exact.
package memo

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Cap bounds every production cache. Real kernel populations are far
// below it; the bound exists so that churn (fuzzers, per-call
// instrumented clones, a long-running service fed unique kernels)
// cannot grow a cache without limit.
const Cap = 4096

// entry is one memoized or in-flight compute. done closes once val and
// err are final; waiters block on it instead of recomputing. elem is the
// entry's LRU position. Evicting an in-flight entry is safe: waiters
// hold the pointer and still see the result; only later requests miss.
type entry[K comparable, V any] struct {
	key  K
	done chan struct{}
	val  V
	err  error
	elem *list.Element
}

// Cache is a concurrency-safe, LRU-bounded, singleflight memo from K to
// V. Construct with New.
type Cache[K comparable, V any] struct {
	cap int

	mu      sync.Mutex
	entries map[K]*entry[K, V]
	lru     list.List // front = most recently used; values are *entry[K, V]
	hook    func(K)
	onEvict func(K)

	hits, computes, evictions atomic.Int64
}

// New builds an empty cache holding at most capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: max(capacity, 1), entries: make(map[K]*entry[K, V])}
}

// Get returns the value memoized under key, calling compute on a miss.
// Concurrent callers for one key share a single compute: the first
// inserts an in-flight entry and computes, later ones count as hits and
// wait for it. ctx bounds only that wait — a completed entry is served
// whatever the context state, and compute observes cancellation through
// its own closure. A failed compute is returned to its waiters but not
// memoized, so a later call retries.
func (c *Cache[K, V]) Get(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		c.hits.Add(1)
		select {
		case <-e.done:
		default:
			select {
			case <-e.done:
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
		}
		return e.val, e.err
	}
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	// Inserts are the only growth and each checks the bound, so at most
	// one entry is ever over it.
	var victim *entry[K, V]
	if c.lru.Len() > c.cap {
		victim = c.lru.Back().Value.(*entry[K, V])
		c.unlink(victim)
	}
	hook, onEvict := c.hook, c.onEvict
	c.mu.Unlock()
	if victim != nil {
		c.evictions.Add(1)
		if onEvict != nil {
			onEvict(victim.key)
		}
	}

	e.val, e.err = compute()
	if e.err != nil {
		// Guard by identity: an eviction plus a re-request may have put a
		// successor in the slot while we computed.
		c.mu.Lock()
		if c.entries[key] == e {
			c.unlink(e)
		}
		c.mu.Unlock()
	} else {
		c.computes.Add(1)
		if hook != nil {
			hook(key)
		}
	}
	close(e.done)
	return e.val, e.err
}

// unlink drops an entry from the map and the LRU list (caller holds mu).
func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
}

// SetHook registers fn to be called once per memoized compute with its
// key, before the compute's waiters are released (nil removes it). Tests
// use it to assert exactly-once computation.
func (c *Cache[K, V]) SetHook(fn func(K)) {
	c.mu.Lock()
	c.hook = fn
	c.mu.Unlock()
}

// SetEvictHook registers fn to be called with each key the LRU bound
// evicts (nil removes it), by the caller whose insert evicted it.
func (c *Cache[K, V]) SetEvictHook(fn func(K)) {
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// Reset drops every entry. In-flight computes complete for their waiters
// but are not memoized for later requests. Counters are untouched:
// dropping entries is not eviction.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	c.entries = make(map[K]*entry[K, V])
	c.lru.Init()
	c.mu.Unlock()
}

// Len returns the number of resident entries (memoized or in flight).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits returns how many lookups found an entry, including joins on an
// in-flight compute.
func (c *Cache[K, V]) Hits() int64 { return c.hits.Load() }

// Computes returns how many computes succeeded and were memoized.
func (c *Cache[K, V]) Computes() int64 { return c.computes.Load() }

// Evictions returns how many entries the LRU bound has evicted.
func (c *Cache[K, V]) Evictions() int64 { return c.evictions.Load() }
