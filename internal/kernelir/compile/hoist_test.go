package compile_test

import (
	"testing"

	"synergy/internal/kernelir"
	"synergy/internal/kernelir/compile"
	"synergy/internal/kernelir/opt"
)

// The compiler's only loop-invariant code motion is the optimizer's LICM
// pass: Compile lowers opt.CachedResult's body and reports its hoist
// count. These cases pin that the lowered body is hoisted (or left
// alone) exactly where loop-invariance allows, and that the compiled
// program still matches the interpreter bit for bit.

// lowered compiles k, checks it against the interpreter on one i32 and
// one f32 output buffer, and returns the body the compiler lowered with
// its reported hoist count.
func lowered(t *testing.T, k *kernelir.Kernel) ([]kernelir.Instr, int) {
	t.Helper()
	prog, err := compile.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() kernelir.Args {
		args := kernelir.Args{F32: map[string][]float32{}, I32: map[string][]int32{}}
		for _, p := range k.Params {
			if p.IsBuffer && p.Type == kernelir.F32 {
				args.F32[p.Name] = []float32{1, 2, 3, 4}
			} else if p.IsBuffer {
				args.I32[p.Name] = []int32{4, 3, 2, 1}
			}
		}
		return args
	}
	ai, ac := mk(), mk()
	if err := kernelir.InterpretGridWorkers(k, ai, 4, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := prog.ExecuteGridWorkers(ac, 4, 0, 1); err != nil {
		t.Fatal(err)
	}
	for name, buf := range ai.F32 {
		for i, v := range buf {
			if v != ac.F32[name][i] {
				t.Fatalf("%s[%d]: interpreted %v, compiled %v", name, i, v, ac.F32[name][i])
			}
		}
	}
	for name, buf := range ai.I32 {
		for i, v := range buf {
			if v != ac.I32[name][i] {
				t.Fatalf("%s[%d]: interpreted %d, compiled %d", name, i, v, ac.I32[name][i])
			}
		}
	}
	return opt.Cached(k).Body, prog.Stats().Hoisted
}

// inLoop counts the instructions with opcode op at nesting depth >= 1.
func inLoop(body []kernelir.Instr, op kernelir.Op) int {
	depth, n := 0, 0
	for _, in := range body {
		switch in.Op {
		case kernelir.OpRepeatBegin:
			depth++
		case kernelir.OpRepeatEnd:
			depth--
		case op:
			if depth > 0 {
				n++
			}
		}
	}
	return n
}

// loopBodyLen returns the instruction count between the first
// OpRepeatBegin and its matching end at nesting depth 1.
func loopBodyLen(body []kernelir.Instr) int {
	depth, n := 0, 0
	for _, in := range body {
		switch in.Op {
		case kernelir.OpRepeatBegin:
			depth++
			if depth == 1 {
				n = 0
				continue
			}
		case kernelir.OpRepeatEnd:
			if depth == 1 {
				return n
			}
			depth--
		}
		if depth >= 1 {
			n++
		}
	}
	return n
}

func TestHoistInvariantChain(t *testing.T) {
	// gid and c are written outside the loop; t1 depends only on them, t2
	// only on t1 and gid — both must cascade out. The accumulator chain
	// (acc reads its own previous value) must stay in.
	b := kernelir.NewBuilder("hoist_chain")
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	acc := b.CopyI(gid)
	b.Repeat(8, func() {
		c := b.ConstI(3)
		t1 := b.MulI(gid, c)
		t2 := b.AddI(t1, gid)
		b.MoveI(acc, b.AddI(acc, t2))
	})
	b.StoreI(out, gid, acc)
	body, n := lowered(t, b.MustBuild())
	if n != 3 {
		t.Fatalf("hoisted %d instructions, want 3 (const, mul, add)", n)
	}
	// Loop keeps only the accumulator add + move.
	if got := loopBodyLen(body); got != 2 {
		t.Fatalf("loop body has %d instructions after hoisting, want 2:\n%v", got, body)
	}
}

func TestHoistBlockedByEarlierRead(t *testing.T) {
	// r0 is read (by the add) before the const writes it: iteration 1
	// must see the pre-loop value, so the const cannot be hoisted even
	// though it is pure and singly-written.
	k := &kernelir.Kernel{
		Name:       "hoist_read_first",
		Params:     []kernelir.Param{{Name: "out", IsBuffer: true, Type: kernelir.I32, Access: kernelir.Write}},
		NumIntRegs: 3,
		Body: []kernelir.Instr{
			{Op: kernelir.OpGlobalID, Dst: 2},
			{Op: kernelir.OpRepeatBegin, Imm: 3},
			{Op: kernelir.OpAddI, Dst: 1, A: 0, B: 0},
			{Op: kernelir.OpConstI, Dst: 0, Imm: 5},
			{Op: kernelir.OpRepeatEnd},
			{Op: kernelir.OpStoreGI, Buf: 0, A: 2, B: 1},
		},
	}
	body, n := lowered(t, k)
	if n != 0 || inLoop(body, kernelir.OpConstI) != 1 {
		t.Fatalf("hoisted %d instructions out of a read-before-write loop, want 0:\n%v", n, body)
	}
}

func TestHoistBlockedByMultipleWrites(t *testing.T) {
	// r1 is written twice in the loop, and both values are observed;
	// neither write may move.
	k := &kernelir.Kernel{
		Name:       "hoist_two_writes",
		Params:     []kernelir.Param{{Name: "out", IsBuffer: true, Type: kernelir.I32, Access: kernelir.Write}},
		NumIntRegs: 2,
		Body: []kernelir.Instr{
			{Op: kernelir.OpGlobalID, Dst: 0},
			{Op: kernelir.OpRepeatBegin, Imm: 3},
			{Op: kernelir.OpConstI, Dst: 1, Imm: 5},
			{Op: kernelir.OpStoreGI, Buf: 0, A: 0, B: 1},
			{Op: kernelir.OpConstI, Dst: 1, Imm: 7},
			{Op: kernelir.OpRepeatEnd},
			{Op: kernelir.OpStoreGI, Buf: 0, A: 0, B: 1},
		},
	}
	body, n := lowered(t, k)
	if n != 0 || inLoop(body, kernelir.OpConstI) != 2 {
		t.Fatalf("hoisted %d of two same-register writes, want 0:\n%v", n, body)
	}
}

func TestHoistExcludesMemoryOps(t *testing.T) {
	// A load is not pure (stores may change the buffer between
	// iterations) and must never be hoisted, even when its index is
	// invariant.
	b := kernelir.NewBuilder("hoist_mem")
	buf := b.BufferF32("buf", kernelir.ReadWrite)
	gid := b.GlobalID()
	acc := b.CopyF(b.ConstF(0))
	b.Repeat(4, func() {
		x := b.LoadF(buf, gid)
		b.MoveF(acc, b.AddF(acc, x))
		b.StoreF(buf, gid, acc)
	})
	b.StoreF(buf, gid, acc)
	body, n := lowered(t, b.MustBuild())
	if n != 0 || inLoop(body, kernelir.OpLoadGF) != 1 {
		t.Fatalf("hoisted %d instructions containing memory ops, want 0:\n%v", n, body)
	}
}

func TestHoistCascadesThroughNesting(t *testing.T) {
	// A const in the innermost of two loops is invariant at every level
	// and should cascade all the way to the root: two hoist moves.
	k := &kernelir.Kernel{
		Name:       "hoist_nested",
		Params:     []kernelir.Param{{Name: "out", IsBuffer: true, Type: kernelir.I32, Access: kernelir.Write}},
		NumIntRegs: 3,
		Body: []kernelir.Instr{
			{Op: kernelir.OpGlobalID, Dst: 2},
			{Op: kernelir.OpRepeatBegin, Imm: 2},
			{Op: kernelir.OpRepeatBegin, Imm: 3},
			{Op: kernelir.OpConstI, Dst: 0, Imm: 9},
			{Op: kernelir.OpAddI, Dst: 1, A: 1, B: 0}, // accumulator stays
			{Op: kernelir.OpRepeatEnd},
			{Op: kernelir.OpRepeatEnd},
			{Op: kernelir.OpStoreGI, Buf: 0, A: 2, B: 1},
		},
	}
	body, n := lowered(t, k)
	if n != 2 {
		t.Fatalf("hoist moves = %d, want 2 (one per nesting level):\n%v", n, body)
	}
	if inLoop(body, kernelir.OpConstI) != 0 || inLoop(body, kernelir.OpAddI) != 1 {
		t.Fatalf("const did not reach the root prologue:\n%v", body)
	}
}

func TestHoistPreservesStructure(t *testing.T) {
	// Hoisted bodies must still validate (register bounds, balanced
	// repeats) and build a loop tree; lowered() checks the compiled
	// program against the interpreter.
	b := kernelir.NewBuilder("hoist_struct")
	out := b.BufferF32("out", kernelir.Write)
	gid := b.GlobalID()
	acc := b.CopyF(b.ConstF(1))
	b.Repeat(3, func() {
		c := b.ConstF(0.5)
		b.Repeat(2, func() {
			d := b.MulF(c, c)
			b.MoveF(acc, b.AddF(acc, d))
		})
	})
	b.StoreF(out, gid, acc)
	k := b.MustBuild()

	body, n := lowered(t, k)
	if n == 0 {
		t.Fatal("expected hoisting on the nested invariant kernel")
	}
	kk := *opt.Cached(k)
	if err := kk.Validate(); err != nil {
		t.Fatalf("hoisted body fails validation: %v", err)
	}
	if _, err := kernelir.BuildLoopTree(body); err != nil {
		t.Fatalf("hoisted body fails loop-tree construction: %v", err)
	}
}
