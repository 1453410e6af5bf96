package sweep

import (
	"fmt"
	"sync/atomic"
	"testing"

	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/compile"
)

var integrationRuns atomic.Int64

// TestSweepCompilesNothing: a sweep reads only the kernel's feature
// workload, so sweeping a kernel no engine has seen compiles nothing,
// although the compiled executor is installed. Not parallel: the
// program cache's compile counter is process-wide.
func TestSweepCompilesNothing(t *testing.T) {
	if kernelir.ActiveRunner() != compile.Default() {
		t.Fatal("compiled runner is not installed as the process executor")
	}
	// A fresh name per run gives a fresh fingerprint, so -count=N runs
	// do not hit the previous run's memos.
	b := kernelir.NewBuilder(fmt.Sprintf("sweep_compiles_nothing_%d", integrationRuns.Add(1)))
	out := b.BufferF32("out", kernelir.Write)
	gid := b.GlobalID()
	acc := b.CopyF(b.ConstF(0))
	b.Repeat(16, func() {
		b.MoveF(acc, b.AddF(acc, b.MulF(b.IntToFloat(gid), b.ConstF(0.25))))
	})
	b.StoreF(out, gid, acc)
	k := b.MustBuild()

	before := compile.Default().Compiles()
	if _, err := NewEngine().GroundTruth(hw.V100(), k, 512); err != nil {
		t.Fatal(err)
	}
	if n := compile.Default().Compiles() - before; n != 0 {
		t.Fatalf("sweeping a new kernel compiled %d programs, want 0", n)
	}
}
