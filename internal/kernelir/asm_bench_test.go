package kernelir_test

import (
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/kernelir"
)

var kernelSink *kernelir.Kernel

// BenchmarkAssemble parses the text of a benchmark-sized unique kernel
// (what every .kir request pays) and of the whole suite.
func BenchmarkAssemble(b *testing.B) {
	unique := benchUnique(b).Disassemble()
	var suite []string
	for _, bm := range benchsuite.All() {
		suite = append(suite, bm.Kernel.Disassemble())
	}
	for _, c := range []struct {
		name  string
		texts []string
	}{{"unique", []string{unique}}, {"suite", suite}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for _, text := range c.texts {
					k, err := kernelir.Assemble(text)
					if err != nil {
						b.Fatal(err)
					}
					kernelSink = k
				}
			}
		})
	}
}
