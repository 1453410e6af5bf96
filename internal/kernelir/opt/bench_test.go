package opt_test

import (
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/opt"
)

// BenchmarkOptimizeSuite optimizes every suite kernel once per
// iteration: the work features.Extract and compile.Compile pay on a miss.
func BenchmarkOptimizeSuite(b *testing.B) {
	suite := benchsuite.All()
	b.ReportAllocs()
	for range b.N {
		for _, bm := range suite {
			if _, res := opt.Optimize(bm.Kernel); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkOptimizeHostile times the optimizer on the hostile
// families (hostile_test.go): a wide loop with nothing to hoist, a
// batch of invariants deep in a nest, an invariant chain that leaves
// one link per scan of its loop, multiplies that algebra examines and
// cannot reduce, and sibling empty repeats for dce to remove. The last
// two run at two sizes, a factor of two apart, so their growth shows.
func BenchmarkOptimizeHostile(b *testing.B) {
	for _, c := range []struct {
		name string
		k    *kernelir.Kernel
	}{
		{"wide", hostileWide(3200)},
		{"nest", hostileNest(800)},
		{"chain", hostileChain(400)},
		{"mul/1600", hostileMul(1600)},
		{"mul/3200", hostileMul(3200)},
		{"empty/5000", hostileEmpty(5000)},
		{"empty/10000", hostileEmpty(10000)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, res := opt.Optimize(c.k); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}
