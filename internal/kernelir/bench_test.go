package kernelir

import "testing"

// Interpreter throughput: the functional-simulation bottleneck.

func benchKernel() *Kernel {
	b := NewBuilder("bench")
	in := b.BufferF32("in", Read)
	out := b.BufferF32("out", Write)
	gid := b.GlobalID()
	acc := b.CopyF(b.ConstF(0))
	one := b.ConstI(1)
	idx := b.CopyI(gid)
	b.Repeat(16, func() {
		v := b.LoadF(in, idx)
		b.MoveF(acc, b.AddF(acc, b.MulF(v, v)))
		b.MoveI(idx, b.AddI(idx, one))
	})
	b.StoreF(out, gid, acc)
	return b.MustBuild()
}

func BenchmarkInterpreterThroughput(b *testing.B) {
	k := benchKernel()
	const n = 1 << 14
	in := make([]float32, n+16)
	out := make([]float32, n)
	for i := range in {
		in[i] = 0.5
	}
	args := Args{F32: map[string][]float32{"in": in, "out": out}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Execute(k, args, n); err != nil {
			b.Fatal(err)
		}
	}
	// ~80 interpreted instructions per item.
	b.SetBytes(int64(n * 80))
}

func BenchmarkValidate(b *testing.B) {
	k := benchKernel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := k.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
