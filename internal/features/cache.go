package features

import (
	"fmt"

	"synergy/internal/memo"
)

// cache is the extraction memo, keyed by the original kernel's
// fingerprint.
var cache = memo.New[string, Vector](memo.Cap)

// SetHook registers fn to be called once per memoized extraction with
// the kernel fingerprint: tests use it to assert exactly-once
// extraction. nil removes it.
func SetHook(fn func(fingerprint string)) { cache.SetHook(fn) }

// Extractions returns how many feature vectors have actually been
// computed (cache misses). Requests served from the memo do not count.
func Extractions() int64 { return cache.Computes() }

// CacheHits returns how many Extract calls were served from the memo,
// including joins on an in-flight extraction.
func CacheHits() int64 { return cache.Hits() }

// CacheSize returns the number of memoized vectors.
func CacheSize() int { return cache.Len() }

// ResetCache drops every memoized vector (test isolation).
func ResetCache() { cache.Reset() }

// FromMap builds a Vector from canonical Table-1 feature names
// (features.Names); it rejects unknown names and negative counts. This
// is the serve daemon's JSON input format for pre-extracted kernels.
func FromMap(m map[string]float64) (Vector, error) {
	var v Vector
	fields := [...]*float64{
		&v.IntAdd, &v.IntMul, &v.IntDiv, &v.IntBw,
		&v.FloatAdd, &v.FloatMul, &v.FloatDiv, &v.SF,
		&v.GlAccess, &v.LocAccess,
	}
	for name, val := range m {
		idx := -1
		for i, n := range Names {
			if n == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return Vector{}, fmt.Errorf("features: unknown feature %q (want one of %v)", name, Names)
		}
		if val < 0 {
			return Vector{}, fmt.Errorf("features: feature %q must be non-negative, got %g", name, val)
		}
		*fields[idx] = val
	}
	return v, nil
}

// ToMap renders the vector under canonical names (the inverse of
// FromMap for all non-negative vectors).
func (v Vector) ToMap() map[string]float64 {
	s := v.Slice()
	m := make(map[string]float64, len(s))
	for i, n := range Names {
		m[n] = s[i]
	}
	return m
}
