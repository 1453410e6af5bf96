//go:build !race

package sweep

import (
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
)

// TestMemoizedHitZeroAlloc: a memoized GroundTruth hit builds a struct
// key and returns the shared sweep, so it allocates nothing. (The race
// detector's instrumentation allocates, hence the build tag.)
func TestMemoizedHitZeroAlloc(t *testing.T) {
	spec := hw.V100()
	b, err := benchsuite.ByName("black_scholes")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("memoized GroundTruth hit allocates %v times, want 0", allocs)
	}
}
