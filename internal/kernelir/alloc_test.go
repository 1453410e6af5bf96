//go:build !race

package kernelir

import "testing"

// TestRepeatFingerprintZeroAlloc: once a kernel is fingerprinted, asking
// again is one atomic load and allocates nothing.
func TestRepeatFingerprintZeroAlloc(t *testing.T) {
	k := benchKernel()
	Fingerprint(k)
	if n := testing.AllocsPerRun(100, func() { Fingerprint(k) }); n != 0 {
		t.Fatalf("repeat Fingerprint: %v allocs, want 0", n)
	}
}

// TestInterpretAllocGrowth: the interpreter's allocations do not grow
// with the number of work-items. Each worker keeps one trip-count slice
// for every item it runs, so a kernel with a repeat allocates the same
// at 256 items as at 1,024.
func TestInterpretAllocGrowth(t *testing.T) {
	k := benchKernel()
	allocs := func(items int) float64 {
		in := make([]float32, items+16)
		args := Args{F32: map[string][]float32{"in": in, "out": make([]float32, items)}}
		return testing.AllocsPerRun(20, func() {
			if err := InterpretGridWorkers(k, args, items, 0, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(256), allocs(1024); small != large {
		t.Fatalf("InterpretGridWorkers: %v allocs at 256 items, %v at 1024", small, large)
	}
}
