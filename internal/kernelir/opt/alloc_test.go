//go:build !race

package opt_test

import (
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/opt"
)

// TestOptimizeAllocGrowth: the optimizer's allocations do not grow with
// the number of repeats it sweeps. Twice as many sibling empty repeats
// may cost only a few more allocations, for the slices that double as
// they grow; one allocation per repeat per pass would read thousands.
func TestOptimizeAllocGrowth(t *testing.T) {
	allocs := func(n int) float64 {
		k := hostileEmpty(n)
		return testing.AllocsPerRun(5, func() { opt.Optimize(k) })
	}
	small, big := allocs(500), allocs(1000)
	if big-small > 8 {
		t.Fatalf("Optimize allocates %v times for 500 empty repeats and %v for 1000, want at most 8 more", small, big)
	}
}

// optimizeAllocs is what Optimize allocates for each suite kernel and
// for the benchmark-shaped unique kernel, measured with Go 1.24: one
// scratch, two body buffers, a loop tree per productive pass and the
// rewrite log with its formatted notes.
var optimizeAllocs = map[string]float64{
	"unique":        45,
	"arith":         26,
	"atax":          24,
	"bicg":          24,
	"black_scholes": 31,
	"correlation":   56,
	"gaussian_blur": 85,
	"gesummv":       34,
	"kmeans":        123,
	"lin_reg_coeff": 24,
	"lin_reg_error": 29,
	"mandelbrot":    42,
	"matmul":        29,
	"median":        42,
	"mol_dyn":       47,
	"mvt":           29,
	"nbody":         47,
	"reduction":     27,
	"scalar_prod":   27,
	"sobel3":        129,
	"sobel5":        258,
	"sobel7":        481,
	"syr2k":         24,
	"vec_add":       13,
}

// TestOptimizeAllocBound holds Optimize to at most 10% more
// allocations than optimizeAllocs records for each kernel.
func TestOptimizeAllocBound(t *testing.T) {
	ks := map[string]*kernelir.Kernel{"unique": uniqueKernel(t)}
	for _, bm := range benchsuite.All() {
		ks[bm.Name] = bm.Kernel
	}
	if len(ks) != len(optimizeAllocs) {
		t.Fatalf("%d kernels, %d recorded counts", len(ks), len(optimizeAllocs))
	}
	for name, k := range ks {
		got := testing.AllocsPerRun(10, func() {
			if _, res := opt.Optimize(k); res.Err != nil {
				t.Fatal(res.Err)
			}
		})
		if want := optimizeAllocs[name]; got > 1.1*want {
			t.Errorf("Optimize(%s): %v allocations, recorded %v", name, got, want)
		}
	}
}
