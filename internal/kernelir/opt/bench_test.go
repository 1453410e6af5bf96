package opt_test

import (
	"strconv"
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

// hostileWide is one repeat holding a 3,200-instruction loop-carried
// chain: nothing in it can be hoisted, so LICM examines every
// instruction and moves none.
func hostileWide() *kernelir.Kernel {
	b := kernelir.NewBuilder("hostile_wide")
	in := b.BufferF32("in", kernelir.Read)
	out := b.BufferF32("out", kernelir.Write)
	s := b.ScalarF("s")
	gid := b.GlobalID()
	b.Repeat(4, func() {
		x := b.LoadF(in, gid)
		for i := 0; i < 3198; i++ {
			if i%2 == 0 {
				x = b.AddF(x, s)
			} else {
				x = b.MulF(x, s)
			}
		}
		b.StoreF(out, gid, x)
	})
	return b.MustBuild()
}

// hostileNest is 800 distinct invariants, each folded into a
// loop-carried sum, 4 repeats deep: LICM lifts the whole batch out one
// level per round.
func hostileNest() *kernelir.Kernel {
	b := kernelir.NewBuilder("hostile_nest")
	in := b.BufferF32("in", kernelir.Read)
	out := b.BufferF32("out", kernelir.Write)
	ps := make([]kernelir.FloatReg, 40)
	for i := range ps {
		ps[i] = b.ScalarF("p" + strconv.Itoa(i))
	}
	gid := b.GlobalID()
	var nest func(depth int)
	nest = func(depth int) {
		if depth > 0 {
			b.Repeat(2, func() { nest(depth - 1) })
			return
		}
		x := b.LoadF(in, gid)
		for k := 0; k < 800; k++ {
			x = b.AddF(x, b.AddF(ps[k%40], ps[k/40]))
		}
		b.StoreF(out, gid, x)
	}
	nest(4)
	return b.MustBuild()
}

// hostileChain is a 400-link invariant chain in one repeat: each link
// reads the one before, so LICM can lift only the chain's head per
// round.
func hostileChain() *kernelir.Kernel {
	b := kernelir.NewBuilder("hostile_chain")
	in := b.BufferF32("in", kernelir.Read)
	out := b.BufferF32("out", kernelir.Write)
	s := b.ScalarF("s")
	gid := b.GlobalID()
	b.Repeat(2, func() {
		v := b.LoadF(in, gid)
		x := s
		for k := 0; k < 400; k++ {
			x = b.AddF(x, s)
		}
		b.StoreF(out, gid, b.AddF(v, x))
	})
	return b.MustBuild()
}

// BenchmarkOptimizeHostile times the optimizer on kernels far larger
// than any real one, shaped to stress LICM: a wide loop with nothing to
// hoist, a batch of invariants deep in a nest, and an invariant chain
// that leaves one link per LICM round.
func BenchmarkOptimizeHostile(b *testing.B) {
	for _, c := range []struct {
		name string
		k    *kernelir.Kernel
	}{
		{"wide", hostileWide()},
		{"nest", hostileNest()},
		{"chain", hostileChain()},
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
