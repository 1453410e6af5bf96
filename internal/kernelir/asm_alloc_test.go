//go:build !race

package kernelir_test

import (
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/kernelir"
)

// assembleAllocs is what Assemble allocates for the text of each suite
// kernel and of the benchmark-shaped unique kernel, measured with
// Go 1.24: about one allocation per parameter and header field, and
// none per instruction.
var assembleAllocs = map[string]float64{
	"unique":        12,
	"arith":         11,
	"atax":          17,
	"bicg":          17,
	"black_scholes": 19,
	"correlation":   15,
	"gaussian_blur": 17,
	"gesummv":       22,
	"kmeans":        15,
	"lin_reg_coeff": 14,
	"lin_reg_error": 19,
	"mandelbrot":    16,
	"matmul":        17,
	"median":        12,
	"mol_dyn":       15,
	"mvt":           15,
	"nbody":         15,
	"reduction":     11,
	"scalar_prod":   14,
	"sobel3":        17,
	"sobel5":        17,
	"sobel7":        17,
	"syr2k":         24,
	"vec_add":       14,
}

// TestAssembleAllocBound holds Assemble to at most 10% more
// allocations than assembleAllocs records for each kernel's text.
func TestAssembleAllocBound(t *testing.T) {
	texts := map[string]string{"unique": benchUnique(t).Disassemble()}
	for _, bm := range benchsuite.All() {
		texts[bm.Name] = bm.Kernel.Disassemble()
	}
	if len(texts) != len(assembleAllocs) {
		t.Fatalf("%d kernels, %d recorded counts", len(texts), len(assembleAllocs))
	}
	for name, text := range texts {
		got := testing.AllocsPerRun(10, func() {
			if _, err := kernelir.Assemble(text); err != nil {
				t.Fatal(err)
			}
		})
		if want := assembleAllocs[name]; got > 1.1*want {
			t.Errorf("Assemble(%s): %v allocations, recorded %v", name, got, want)
		}
	}
}
