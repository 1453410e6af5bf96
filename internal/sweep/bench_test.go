package sweep

import (
	"context"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
)

// BenchmarkSweepMiss times the computation behind one cache miss: a
// suite kernel's V100 sweep (196 points) from its memoized feature
// workload into a metrics.Sweep.
func BenchmarkSweepMiss(b *testing.B) {
	spec := hw.V100()
	bm, err := benchsuite.ByName("black_scholes")
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.evaluate(ctx, spec, bm.Kernel, bm.CharItems); err != nil {
			b.Fatal(err)
		}
	}
}
