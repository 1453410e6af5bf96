//go:build !race

package opt_test

import (
	"testing"

	"synergy/internal/kernelir/opt"
)

// TestOptimizeAllocGrowth: the optimizer's allocations do not grow with
// the number of repeats it sweeps. Twice as many sibling empty repeats
// may cost only a few more allocations, for the slices that double as
// they grow; one allocation per repeat per pass would read thousands.
func TestOptimizeAllocGrowth(t *testing.T) {
	allocs := func(n int) float64 {
		k := hostileEmpty(n)
		return testing.AllocsPerRun(5, func() { opt.Optimize(k) })
	}
	small, big := allocs(500), allocs(1000)
	if big-small > 8 {
		t.Fatalf("Optimize allocates %v times for 500 empty repeats and %v for 1000, want at most 8 more", small, big)
	}
}
