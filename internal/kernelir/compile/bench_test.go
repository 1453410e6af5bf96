package compile_test

import (
	"fmt"
	"testing"

	"synergy/internal/kernelir"
	"synergy/internal/kernelir/compile"
)

// benchKernel builds a loop-heavy kernel whose per-item work scales
// with trips. The loop recomputes an invariant subexpression every
// iteration and folds it into an accumulator — the shape of naively
// written device code. It concentrates everything the compiler
// eliminates: the interpreter re-executes the invariant chain, pays
// switch dispatch per instruction, and counts down the repeat's trips;
// the compiled program hoists the invariants to a
// one-time prologue and runs the remaining accumulate+move as a single
// fused closure per iteration.
func benchKernel(name string, trips int) *kernelir.Kernel {
	b := kernelir.NewBuilder(name)
	in := b.BufferF32("in", kernelir.Read)
	out := b.BufferF32("out", kernelir.Write)
	gid := b.GlobalID()
	x := b.LoadF(in, gid)
	acc := b.CopyI(gid)
	b.Repeat(trips, func() {
		t := b.MulI(gid, b.ConstI(3)) // invariant: hoisted by the compiler
		u := b.AddI(t, b.ConstI(7))   // invariant: hoisted by the compiler
		b.MoveI(acc, b.AddI(acc, u))  // compiles to one fused step
	})
	b.StoreF(out, gid, b.AddF(x, b.IntToFloat(acc)))
	return b.MustBuild()
}

var benchSizes = []struct {
	tag   string
	trips int
	items int
}{
	{"small", 4, 256},
	{"medium", 64, 1024},
	{"large", 1024, 4096},
}

func benchArgs(items int) kernelir.Args {
	in := make([]float32, items)
	for i := range in {
		in[i] = float32(i%17) * 0.25
	}
	return kernelir.Args{F32: map[string][]float32{
		"in":  in,
		"out": make([]float32, items),
	}}
}

// BenchmarkInterpExecute measures the interpreter (the oracle path,
// single worker so the numbers isolate per-instruction dispatch cost).
func BenchmarkInterpExecute(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.tag, func(b *testing.B) {
			k := benchKernel("bench_"+sz.tag, sz.trips)
			args := benchArgs(sz.items)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := kernelir.InterpretGridWorkers(k, args, sz.items, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompiledExecute measures the closure-threaded program on the
// identical kernels and launch geometry (compile cost excluded: it is
// one-time and amortised by the cache in production).
func BenchmarkCompiledExecute(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.tag, func(b *testing.B) {
			prog, err := compile.Compile(benchKernel("bench_"+sz.tag, sz.trips))
			if err != nil {
				b.Fatal(err)
			}
			args := benchArgs(sz.items)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := prog.ExecuteGridWorkers(args, sz.items, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileOnce measures the one-time compilation cost the cache
// amortises.
func BenchmarkCompileOnce(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.tag, func(b *testing.B) {
			kernels := make([]*kernelir.Kernel, b.N)
			for i := range kernels {
				kernels[i] = benchKernel(fmt.Sprintf("bench_%s_%d", sz.tag, i), sz.trips)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := compile.Compile(kernels[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
