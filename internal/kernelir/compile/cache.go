package compile

import (
	"context"
	"sync/atomic"

	"synergy/internal/kernelir"
	"synergy/internal/memo"
)

// Cache memoizes compiled programs by kernel fingerprint on an
// internal/memo cache: lookups are singleflight (concurrent requests for
// one fingerprint share a single compilation), failed compilations are
// not memoized, and the cache is LRU-bounded and safe for concurrent
// use. It implements kernelir.Runner, so an instance can be installed as
// the process executor (the package init installs Default()).
type Cache struct {
	progs *memo.Cache[string, *Program]
	runs  atomic.Int64
}

// NewCache builds an empty program cache.
func NewCache() *Cache {
	return &Cache{progs: memo.New[string, *Program](memo.Cap)}
}

// SetHook installs a function called once per successful compilation
// with the kernel fingerprint, before waiters are released (nil disables
// it). Tests use it to assert exactly-once compilation per fingerprint.
func (c *Cache) SetHook(fn func(fingerprint string)) { c.progs.SetHook(fn) }

// Get returns the compiled program for the kernel, compiling it at most
// once per kernelir.Fingerprint (the key every kernel-keyed memo uses).
// Concurrent callers for the same kernel block on the single in-flight
// compilation. Compile errors are returned but not memoized, so a later
// call may retry.
func (c *Cache) Get(k *kernelir.Kernel) (*Program, error) {
	return c.progs.Get(context.Background(), kernelir.Fingerprint(k), func() (*Program, error) {
		return Compile(k)
	})
}

// RunGrid implements kernelir.Runner: compile (or fetch) and execute.
func (c *Cache) RunGrid(k *kernelir.Kernel, env *kernelir.Bound, items, nx int) error {
	c.runs.Add(1)
	prog, err := c.Get(k)
	if err != nil {
		return err
	}
	return prog.run(env, items, nx, 0)
}

// Compiles returns the number of successful compilations.
func (c *Cache) Compiles() int64 { return c.progs.Computes() }

// Hits returns the number of lookups that found an entry (including
// joins on an in-flight compilation).
func (c *Cache) Hits() int64 { return c.progs.Hits() }

// Evictions returns the number of LRU evictions.
func (c *Cache) Evictions() int64 { return c.progs.Evictions() }

// Runs returns the number of executions dispatched through the cache's
// Runner entry point.
func (c *Cache) Runs() int64 { return c.runs.Load() }

// Len returns the current number of cached entries.
func (c *Cache) Len() int { return c.progs.Len() }

var defaultCache = NewCache()

// Default returns the process-wide program cache that init installs as
// the kernelir Runner.
func Default() *Cache { return defaultCache }

// Cached compiles through the default cache.
func Cached(k *kernelir.Kernel) (*Program, error) { return defaultCache.Get(k) }

// Importing the package switches kernelir execution to compiled code:
// the default cache becomes the process Runner (restore the interpreter
// with kernelir.SetRunner(nil)).
func init() {
	kernelir.SetRunner(defaultCache)
}
