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
