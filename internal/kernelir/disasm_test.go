package kernelir

import (
	"strings"
	"testing"
)

func TestDisassembleContainsStructure(t *testing.T) {
	t.Parallel()
	b := NewBuilder("demo")
	in := b.BufferF32("in", Read)
	out := b.BufferF32("out", Write)
	n := b.ScalarI("n")
	b.Local(8)
	b.TrafficFactor(0.5)
	gid := b.GlobalID()
	acc := b.CopyF(b.ConstF(0))
	b.Repeat(4, func() {
		v := b.LoadF(in, gid)
		b.MoveF(acc, b.AddF(acc, v))
	})
	idx := b.MinI(gid, n)
	b.StoreF(out, idx, acc)
	k := b.MustBuild()

	asm := k.Disassemble()
	for _, want := range []string{
		"kernel demo(",
		"read f32[in]",
		"write f32[out]",
		"i32 n",
		"traffic=0.5 {",
		"local f32[8]",
		"repeat 4 {",
		"ld.g.f in[",
		"add.f",
		"min.i",
		"st.g.f out[",
	} {
		if !strings.Contains(asm, want) {
			t.Errorf("disassembly missing %q:\n%s", want, asm)
		}
	}
	// Balanced braces.
	if strings.Count(asm, "{") != strings.Count(asm, "}") {
		t.Errorf("unbalanced braces:\n%s", asm)
	}
}

func TestDisassembleAllOpsRenderable(t *testing.T) {
	t.Parallel()
	// Every opcode must have a mnemonic; exercising a kernel with broad
	// coverage guards the opNames table.
	b := NewBuilder("wide")
	fb := b.BufferF32("f", ReadWrite)
	ib := b.BufferI32("i", ReadWrite)
	b.Local(2)
	gid := b.GlobalID()
	c := b.ConstI(3)
	x := b.AddI(gid, c)
	x = b.SubI(x, c)
	x = b.MulI(x, c)
	x = b.DivI(x, c)
	x = b.RemI(x, c)
	x = b.AndI(x, c)
	x = b.OrI(x, c)
	x = b.XorI(x, c)
	x = b.ShlI(x, c)
	x = b.ShrI(x, c)
	x = b.MinI(x, c)
	x = b.MaxI(x, c)
	cmp := b.CmpLTI(x, c)
	eq := b.CmpEQI(x, c)
	x = b.SelI(cmp, x, eq)
	f := b.LoadF(fb, gid)
	f = b.AddF(f, f)
	f = b.SubF(f, f)
	f = b.MulF(f, f)
	g := b.ConstF(2)
	f = b.DivF(f, g)
	f = b.MinF(f, g)
	f = b.MaxF(f, g)
	f = b.AbsF(f)
	f = b.NegF(f)
	fcmp := b.CmpLTF(f, g)
	f = b.SelF(fcmp, f, g)
	f = b.SqrtF(b.AbsF(f))
	f = b.ExpF(b.MinF(f, g))
	f = b.LogF(b.MaxF(f, b.ConstF(1)))
	f = b.SinF(f)
	f = b.CosF(f)
	f = b.PowF(b.AbsF(f), g)
	f = b.ErfF(f)
	f = b.AddF(f, b.IntToFloat(x))
	y := b.FloatToInt(f)
	b.StoreLocal(b.ConstI(0), f)
	f2 := b.LoadLocal(b.ConstI(1))
	b.StoreF(fb, gid, b.AddF(f, f2))
	iv := b.LoadI(ib, gid)
	b.StoreI(ib, gid, b.AddI(iv, y))
	k := b.MustBuild()

	asm := k.Disassemble()
	if strings.Contains(asm, "op(") {
		t.Fatalf("disassembly contains unnamed opcode:\n%s", asm)
	}
}
