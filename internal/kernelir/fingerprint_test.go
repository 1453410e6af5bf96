package kernelir

import (
	"fmt"
	"sync"
	"testing"

	"synergy/internal/memo"
)

func churnKernel(i int) *Kernel {
	b := NewBuilder(fmt.Sprintf("fp_%d", i))
	out := b.BufferI32("out", Write)
	gid := b.GlobalID()
	b.StoreI(out, gid, gid)
	return b.MustBuild()
}

// TestFingerprintMemoizedExactlyOnce: concurrent callers fingerprint a
// kernel with one disassembly, and past memo.Cap transient kernels the
// memo still memoizes new ones (it evicts instead of giving up).
func TestFingerprintMemoizedExactlyOnce(t *testing.T) {
	k := churnKernel(-1)
	before := fingerprints.Computes()
	var wg sync.WaitGroup
	fps := make([]string, 16)
	for i := range fps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fps[i] = Fingerprint(k)
		}(i)
	}
	wg.Wait()
	if n := fingerprints.Computes() - before; n != 1 {
		t.Fatalf("kernel fingerprinted %d times, want exactly 1", n)
	}
	for _, fp := range fps {
		if fp != fps[0] {
			t.Fatal("concurrent callers saw different fingerprints")
		}
	}

	for i := 0; i <= memo.Cap; i++ {
		Fingerprint(churnKernel(i))
	}
	late := churnKernel(memo.Cap + 1)
	before = fingerprints.Computes()
	Fingerprint(late)
	Fingerprint(late)
	if n := fingerprints.Computes() - before; n != 1 {
		t.Fatalf("past the cap a kernel was fingerprinted %d times, want 1", n)
	}
}
