//go:build !race

package hw

import "testing"

// TestSweepZeroAlloc: the table pass into a caller's slice allocates
// nothing. (The race detector's instrumentation allocates, hence the
// build tag.)
func TestSweepZeroAlloc(t *testing.T) {
	s := V100()
	w := Workload{Name: "alloc", Items: 1 << 22, FloatOps: 120, GlobalBytes: 24}
	ms := make([]Measurement, len(s.CoreFreqsMHz))
	fill := func(i int, m Measurement) error {
		ms[i] = m
		return nil
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Sweep(w, fill); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Sweep allocates %v times, want 0", allocs)
	}
}
