package opt_test

import (
	"strconv"

	"synergy/internal/kernelir"
)

// The hostile families are kernels far larger than any real one, each
// shaped to stress one pass. n sets the size: BenchmarkOptimizeHostile
// runs them big and TestOptimizeGolden pins them small.

// hostileWide is one repeat holding an n-instruction loop-carried
// chain: nothing in it can be hoisted, so LICM examines every
// instruction and moves none.
func hostileWide(n int) *kernelir.Kernel {
	b := kernelir.NewBuilder("hostile_wide")
	in := b.BufferF32("in", kernelir.Read)
	out := b.BufferF32("out", kernelir.Write)
	s := b.ScalarF("s")
	gid := b.GlobalID()
	b.Repeat(4, func() {
		x := b.LoadF(in, gid)
		for i := 0; i < n-2; i++ {
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

// hostileNest is n distinct invariants, each folded into a
// loop-carried sum, 4 repeats deep: LICM lifts the whole batch out one
// level per round.
func hostileNest(n int) *kernelir.Kernel {
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
		for k := 0; k < n; k++ {
			x = b.AddF(x, b.AddF(ps[k%40], ps[k/40%40]))
		}
		b.StoreF(out, gid, x)
	}
	nest(4)
	return b.MustBuild()
}

// hostileChain is an n-link invariant chain in one repeat: each link
// reads the one before, so LICM can lift only the chain's head per
// scan of the loop.
func hostileChain(n int) *kernelir.Kernel {
	b := kernelir.NewBuilder("hostile_chain")
	in := b.BufferF32("in", kernelir.Read)
	out := b.BufferF32("out", kernelir.Write)
	s := b.ScalarF("s")
	gid := b.GlobalID()
	b.Repeat(2, func() {
		v := b.LoadF(in, gid)
		x := s
		for k := 0; k < n; k++ {
			x = b.AddF(x, s)
		}
		b.StoreF(out, gid, b.AddF(v, x))
	})
	return b.MustBuild()
}

// hostileMul multiplies a loaded value n times by one power-of-two
// constant, in a repeat. The constant has n readers, so strength
// reduction never fires, and every multiply reads the loaded value or
// the one before, so nothing hoists: algebra examines every multiply as
// a strength-reduction candidate and rewrites none.
func hostileMul(n int) *kernelir.Kernel {
	b := kernelir.NewBuilder("hostile_mul")
	in := b.BufferI32("in", kernelir.Read)
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	c := b.ConstI(8)
	b.Repeat(4, func() {
		x := b.LoadI(in, gid)
		for range n {
			x = b.MulI(x, c)
		}
		b.StoreI(out, gid, x)
	})
	return b.MustBuild()
}

// hostileEmpty is n sibling empty repeats, which dce removes pair by
// pair.
func hostileEmpty(n int) *kernelir.Kernel {
	b := kernelir.NewBuilder("hostile_empty")
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	for range n {
		b.Repeat(1, func() {})
	}
	b.StoreI(out, gid, gid)
	return b.MustBuild()
}

// hostileEmptyNest is n sibling nests of empty repeats, each
// kernelir.MaxDepth deep, which dce removes inside-out.
func hostileEmptyNest(n int) *kernelir.Kernel {
	b := kernelir.NewBuilder("hostile_empty_nest")
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	var nest func(depth int)
	nest = func(depth int) {
		if depth > 0 {
			b.Repeat(1, func() { nest(depth - 1) })
		}
	}
	for range n {
		nest(kernelir.MaxDepth)
	}
	b.StoreI(out, gid, gid)
	return b.MustBuild()
}
