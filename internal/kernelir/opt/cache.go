package opt

import (
	"context"

	"synergy/internal/kernelir"
	"synergy/internal/memo"
)

// Fingerprint-keyed memo for Optimize: the same kernel arrives on every
// hot path (compile, feature extraction, sweep, serve), and the pipeline
// is deterministic, so one run per structural fingerprint suffices.
// Because Optimize is idempotent, a hit for an already-optimized kernel
// returns the kernel itself.

type optimized struct {
	k   *kernelir.Kernel
	res Result
}

var cache = memo.New[string, optimized](memo.Cap)

// Cached returns Optimize(k)'s kernel, memoized by fingerprint.
func Cached(k *kernelir.Kernel) *kernelir.Kernel {
	nk, _ := CachedResult(k)
	return nk
}

// CachedResult is Optimize memoized by kernelir.Fingerprint. Equal
// fingerprints mean structurally identical kernels, so sharing the
// optimized kernel (and its justification log) across callers is sound.
// Fail-safe results (Result.Err != nil) are cached too: a kernel that
// defeats the optimizer today will defeat it identically tomorrow.
func CachedResult(k *kernelir.Kernel) (*kernelir.Kernel, Result) {
	o, _ := cache.Get(context.Background(), kernelir.Fingerprint(k), func() (optimized, error) {
		nk, res := Optimize(k)
		return optimized{nk, res}, nil
	})
	return o.k, o.res
}

// CacheStats reports (memoized runs currently held, hits, total runs).
func CacheStats() (size int, hitCount, runCount uint64) {
	return cache.Len(), uint64(cache.Hits()), uint64(cache.Computes())
}

// ResetCache drops every memoized run (counters keep counting).
func ResetCache() { cache.Reset() }
