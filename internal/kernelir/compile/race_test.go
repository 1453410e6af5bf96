package compile_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"synergy/internal/kernelir"
	"synergy/internal/kernelir/compile"
	"synergy/internal/kernelir/opt"
)

// namedKernel builds a trivial distinct kernel per name so each has its
// own fingerprint.
func namedKernel(name string, scale int64) *kernelir.Kernel {
	b := kernelir.NewBuilder(name)
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	b.StoreI(out, gid, b.MulI(gid, b.ConstI(scale)))
	return b.MustBuild()
}

// TestCacheSingleflight hammers one cache with many goroutines asking
// for the same kernel and requires exactly one compilation: every
// caller must block on the in-flight compile and receive the identical
// *Program.
func TestCacheSingleflight(t *testing.T) {
	c := compile.NewCache()
	k := namedKernel("singleflight", 3)

	const goroutines = 64
	progs := make([]*compile.Program, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			p, err := c.Get(k)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			progs[i] = p
		}(i)
	}
	start.Done()
	done.Wait()

	if got := c.Compiles(); got != 1 {
		t.Fatalf("cache compiled %d times for one kernel, want exactly 1", got)
	}
	for i := 1; i < goroutines; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d received a different *Program than goroutine 0", i)
		}
	}
	if c.Hits() != goroutines-1 {
		t.Fatalf("hits = %d, want %d", c.Hits(), goroutines-1)
	}
}

// TestCacheLRUBounded runs concurrent lookups of more kernels than the
// cache holds: evictions must occur, the resident count must respect
// the cap, and every returned program must still execute the kernel it
// was compiled from.
func TestCacheLRUBounded(t *testing.T) {
	const cap = 2
	c := compile.NewCacheCap(cap)
	kernels := make([]*kernelir.Kernel, 4)
	for i := range kernels {
		kernels[i] = namedKernel(fmt.Sprintf("lru_%d", i), int64(i+1))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 32; round++ {
				k := kernels[(g+round)%len(kernels)]
				p, err := c.Get(k)
				if err != nil {
					t.Errorf("Get(%s): %v", k.Name, err)
					return
				}
				if p.Kernel().Name != k.Name {
					t.Errorf("cache returned program for %q, asked for %q", p.Kernel().Name, k.Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if c.Evictions() == 0 {
		t.Fatal("no evictions after cycling 4 kernels through a cap-2 cache")
	}
	if c.Len() > cap {
		t.Fatalf("cache holds %d entries, cap is %d", c.Len(), cap)
	}
	// Evicted entries recompile on demand and still run correctly.
	for i, k := range kernels {
		p, err := c.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int32, 4)
		if err := p.Execute(kernelir.Args{I32: map[string][]int32{"out": out}}, 4); err != nil {
			t.Fatal(err)
		}
		for gid, v := range out {
			if want := int32(gid * (i + 1)); v != want {
				t.Fatalf("%s: out[%d] = %d, want %d", k.Name, gid, v, want)
			}
		}
	}
}

// TestCacheFailedCompileNotMemoized asserts invalid kernels are
// recompiled on each request (errors are not cached) and never count
// as resident entries.
func TestCacheFailedCompileNotMemoized(t *testing.T) {
	c := compile.NewCache()
	bad := &kernelir.Kernel{Name: "bad", Body: []kernelir.Instr{{Op: kernelir.OpRepeatEnd}}}
	for i := 0; i < 3; i++ {
		if _, err := c.Get(bad); err == nil {
			t.Fatal("invalid kernel compiled successfully")
		}
	}
	if c.Len() != 0 {
		t.Fatalf("failed compiles left %d resident entries", c.Len())
	}
}

var runnerRuns atomic.Int64

// TestRunnerCompilesOncePerRawFingerprint: concurrent kernelir.Execute
// calls for one kernel dispatch through the default cache, which
// compiles it exactly once, keyed on the kernel's own fingerprint
// rather than its optimizer normal form's.
func TestRunnerCompilesOncePerRawFingerprint(t *testing.T) {
	// A fresh name per run gives a fresh fingerprint, so -count=N runs
	// do not hit the previous run's program. The constant product folds,
	// so the normal form's fingerprint differs from the raw one.
	b := kernelir.NewBuilder(fmt.Sprintf("runner_once_%d", runnerRuns.Add(1)))
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	b.StoreI(out, gid, b.AddI(gid, b.MulI(b.ConstI(3), b.ConstI(5))))
	k := b.MustBuild()
	fp := kernelir.Fingerprint(k)
	if kernelir.Fingerprint(opt.Cached(k)) == fp {
		t.Fatal("test kernel is already in optimizer normal form")
	}

	var compilations atomic.Int64
	compile.Default().SetHook(func(got string) {
		if got == fp {
			compilations.Add(1)
		}
	})
	defer compile.Default().SetHook(nil)

	const callers = 8
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer wg.Done()
			args := kernelir.Args{I32: map[string][]int32{"out": make([]int32, 64)}}
			if err := kernelir.Execute(k, args, 64); err != nil {
				t.Errorf("Execute: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := compilations.Load(); got != 1 {
		t.Fatalf("kernel compiled %d times under its raw fingerprint across %d concurrent executions, want exactly once", got, callers)
	}
}
