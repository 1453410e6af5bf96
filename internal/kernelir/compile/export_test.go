package compile

import "synergy/internal/memo"

// NewCacheCap builds a program cache bounded at n entries, so tests can
// drive eviction without compiling memo.Cap kernels.
func NewCacheCap(n int) *Cache {
	return &Cache{progs: memo.New[string, *Program](n)}
}
