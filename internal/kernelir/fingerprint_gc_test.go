//go:build go1.24

package kernelir_test

import (
	"runtime"
	"testing"
	"weak"

	"synergy/internal/kernelir"
)

// TestFingerprintedKernelIsCollected: a kernel keeps its fingerprint
// itself, so nothing process-wide pins it once its last user drops it.
func TestFingerprintedKernelIsCollected(t *testing.T) {
	w := func() weak.Pointer[kernelir.Kernel] {
		k := foldable()
		kernelir.Fingerprint(k)
		return weak.Make(k)
	}()
	for i := 0; i < 10 && w.Value() != nil; i++ {
		runtime.GC()
	}
	if w.Value() != nil {
		t.Fatal("a fingerprinted kernel outlived its last reference")
	}
}
