//go:build !race

package features

import "testing"

// The repeat path of Extract — the kernel's stored fingerprint plus a
// memo hit — is on the serve daemon's hot path and must not allocate.
// (Skipped under -race, whose instrumentation allocates.)
func TestExtractCachedZeroAlloc(t *testing.T) {
	k := buildSaxpy(t)
	if _, err := Extract(k); err != nil { // fingerprint the kernel + fill the vector memo
		t.Fatal(err)
	}
	var sink Vector
	allocs := testing.AllocsPerRun(1000, func() {
		v, err := Extract(k)
		if err != nil {
			t.Fatal(err)
		}
		sink = v
	})
	if allocs != 0 {
		t.Errorf("cached Extract allocates %v per run, want 0", allocs)
	}
	_ = sink
}
