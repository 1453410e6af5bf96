package compile_test

import (
	"math"
	"testing"

	"synergy/internal/kernelir"
	"synergy/internal/kernelir/compile"
)

// allOps enumerates every opcode by probing the public operand table:
// Op.Info panics past the last defined opcode, so the probe finds the op
// universe without access to the private sentinel. New opcodes therefore
// enlarge the coverage requirement automatically.
func allOps() []kernelir.Op {
	var ops []kernelir.Op
	for i := 0; ; i++ {
		known := func() (ok bool) {
			defer func() { recover() }()
			kernelir.Op(i).Info()
			return true
		}()
		if !known {
			return ops
		}
		ops = append(ops, kernelir.Op(i))
	}
}

// diffCase is one entry of the differential matrix: a kernel, an
// argument factory (fresh buffers per call) and a launch geometry.
type diffCase struct {
	name  string
	k     *kernelir.Kernel
	args  func() kernelir.Args
	items int
	nx    int
	// serialOnly marks kernels whose work-items race on clamped stores:
	// their outcome is deterministic only under one worker, so the
	// multi-worker comparison is skipped.
	serialOnly bool
}

// compareBuffers asserts bit-exact equality of every bound buffer.
func compareBuffers(t *testing.T, ctx string, interp, compiled kernelir.Args) {
	t.Helper()
	for name, ib := range interp.F32 {
		cb := compiled.F32[name]
		if len(ib) != len(cb) {
			t.Fatalf("%s: f32 buffer %q length %d vs %d", ctx, name, len(ib), len(cb))
		}
		for i := range ib {
			if math.Float32bits(ib[i]) != math.Float32bits(cb[i]) {
				t.Fatalf("%s: f32 buffer %q[%d]: interpreted %v (bits %08x) != compiled %v (bits %08x)",
					ctx, name, i, ib[i], math.Float32bits(ib[i]), cb[i], math.Float32bits(cb[i]))
			}
		}
	}
	for name, ib := range interp.I32 {
		cb := compiled.I32[name]
		if len(ib) != len(cb) {
			t.Fatalf("%s: i32 buffer %q length %d vs %d", ctx, name, len(ib), len(cb))
		}
		for i := range ib {
			if ib[i] != cb[i] {
				t.Fatalf("%s: i32 buffer %q[%d]: interpreted %d != compiled %d", ctx, name, i, ib[i], cb[i])
			}
		}
	}
}

// compareErrs asserts byte-identical error values.
func compareErrs(t *testing.T, ctx string, interp, compiled error) {
	t.Helper()
	switch {
	case interp == nil && compiled == nil:
	case interp == nil || compiled == nil:
		t.Fatalf("%s: interpreted err %v, compiled err %v", ctx, interp, compiled)
	case interp.Error() != compiled.Error():
		t.Fatalf("%s: error mismatch:\n  interpreted: %s\n  compiled:    %s", ctx, interp, compiled)
	}
}

// runDiff executes one case on both paths under the given worker count
// and asserts bit-exact buffers and errors.
func runDiff(t *testing.T, c diffCase, workers int) {
	t.Helper()
	prog, err := compile.Compile(c.k)
	if err != nil {
		t.Fatalf("Compile(%s): %v", c.k.Name, err)
	}
	ai := c.args()
	ac := c.args()
	errI := kernelir.InterpretGridWorkers(c.k, ai, c.items, c.nx, workers)
	errC := prog.ExecuteGridWorkers(ac, c.items, c.nx, workers)
	ctx := c.name
	compareErrs(t, ctx, errI, errC)
	compareBuffers(t, ctx, ai, ac)
}

func f32ramp(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(i)*0.75 - float32(n)/3
	}
	return out
}

func i32ramp(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i*7 - n)
	}
	return out
}

func intOmnibus() *kernelir.Kernel {
	b := kernelir.NewBuilder("int_omnibus")
	in := b.BufferI32("in", kernelir.Read)
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	si := b.ScalarI("si")
	v := b.LoadI(in, gid)
	zero := b.ConstI(0)
	a1 := b.AddI(v, si)
	a2 := b.SubI(a1, gid)
	a3 := b.MulI(a2, b.ConstI(3))
	d1 := b.DivI(a3, si)
	d0 := b.DivI(a3, zero) // divide-by-zero defined as 0
	r1 := b.RemI(a3, si)
	r0 := b.RemI(a3, zero)
	mn := b.MinI(d1, r1)
	mx := b.MaxI(d0, r0)
	lt := b.CmpLTI(v, si)
	eq := b.CmpEQI(v, si)
	se := b.SelI(lt, mn, mx)
	bw := b.XorI(b.OrI(b.AndI(v, b.ConstI(0x5a)), a1), se)
	sh := b.AddI(b.ShlI(v, b.ConstI(67)), b.ShrI(bw, b.ConstI(-3))) // masked shifts
	tot := b.AddI(b.AddI(sh, eq), b.CopyI(bw))
	b.StoreI(out, gid, tot)
	return b.MustBuild()
}

func floatOmnibus() *kernelir.Kernel {
	b := kernelir.NewBuilder("float_omnibus")
	in := b.BufferF32("in", kernelir.Read)
	out := b.BufferF32("out", kernelir.Write)
	gid := b.GlobalID()
	sf := b.ScalarF("sf")
	x := b.LoadF(in, gid)
	y := b.LoadF(in, b.AddI(gid, b.ConstI(1)))
	acc := b.CopyF(x)
	acc = b.AddF(acc, y)
	acc = b.SubF(acc, sf)
	acc = b.MulF(acc, b.ConstF(1.5))
	acc = b.DivF(acc, b.ConstF(0.75))
	mn := b.MinF(x, y)
	mx := b.MaxF(x, y)
	ab := b.AbsF(b.NegF(mn))
	lt := b.CmpLTF(x, y)
	sel := b.SelF(lt, mx, ab)
	s1 := b.SqrtF(b.AbsF(x))
	s2 := b.ExpF(b.MinF(x, b.ConstF(2)))
	s3 := b.LogF(x) // NaN/-Inf for non-positive inputs, by design
	s4 := b.SinF(x)
	s5 := b.CosF(y)
	s6 := b.PowF(b.AbsF(x), y)
	s7 := b.ErfF(x)
	fi := b.IntToFloat(b.FloatToInt(b.MulF(x, b.ConstF(3))))
	z := acc
	for _, v := range []kernelir.FloatReg{sel, s1, s2, s3, s4, s5, s6, s7, fi} {
		z = b.AddF(z, v)
	}
	b.StoreF(out, gid, z)
	return b.MustBuild()
}

func localScratch() *kernelir.Kernel {
	b := kernelir.NewBuilder("local_scratch")
	in := b.BufferF32("in", kernelir.Read)
	out := b.BufferF32("out", kernelir.Write)
	b.Local(4)
	gid := b.GlobalID()
	x := b.LoadF(in, gid)
	idx := b.RemI(gid, b.ConstI(4))
	b.StoreLocal(idx, x)
	b.StoreLocal(b.AddI(gid, b.ConstI(100)), b.MulF(x, b.ConstF(2))) // clamps to last slot
	v1 := b.LoadLocal(idx)
	v2 := b.LoadLocal(b.ConstI(-7)) // clamps to slot 0
	b.StoreF(out, gid, b.AddF(v1, v2))
	return b.MustBuild()
}

func gridKernel() *kernelir.Kernel {
	b := kernelir.NewBuilder("grid_xy")
	out := b.BufferI32("out", kernelir.Write)
	x, y := b.GlobalID2()
	v := b.AddI(b.MulI(x, b.ConstI(100)), y)
	b.StoreI(out, b.GlobalID(), v)
	return b.MustBuild()
}

func repeatOne() *kernelir.Kernel {
	b := kernelir.NewBuilder("repeat_one")
	in := b.BufferF32("in", kernelir.Read)
	out := b.BufferF32("out", kernelir.Write)
	gid := b.GlobalID()
	acc := b.CopyF(b.ConstF(0.5))
	b.Repeat(1, func() {
		b.MoveF(acc, b.AddF(acc, b.LoadF(in, gid)))
	})
	b.StoreF(out, gid, acc)
	return b.MustBuild()
}

func repeatNested() *kernelir.Kernel {
	b := kernelir.NewBuilder("repeat_nested")
	in := b.BufferF32("in", kernelir.Read)
	out := b.BufferF32("out", kernelir.Write)
	gid := b.GlobalID()
	si := b.ScalarI("si")
	acc := b.CopyF(b.ConstF(0))
	iv := b.CopyI(gid)
	b.Repeat(3, func() {
		t1 := b.MulI(si, b.ConstI(7)) // invariant; cascades outward
		b.Repeat(4, func() {
			t2 := b.AddI(t1, si) // invariant in the inner loop
			x := b.LoadF(in, b.AddI(iv, t2))
			b.MoveF(acc, b.AddF(acc, x))         // move-fusable accumulator
			b.MoveI(iv, b.AddI(iv, b.ConstI(1))) // move-fusable induction
		})
	})
	b.StoreF(out, gid, acc)
	return b.MustBuild()
}

func maxTrip() *kernelir.Kernel {
	b := kernelir.NewBuilder("max_trip")
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	one := b.ConstI(1)
	cnt := b.CopyI(b.ConstI(0))
	b.Repeat(kernelir.MaxRepeatTrip, func() {
		b.MoveI(cnt, b.AddI(cnt, one))
	})
	b.StoreI(out, gid, cnt)
	return b.MustBuild()
}

func oobClamp() *kernelir.Kernel {
	b := kernelir.NewBuilder("oob_clamp")
	in := b.BufferF32("in", kernelir.Read)
	out := b.BufferF32("out", kernelir.Write)
	gid := b.GlobalID()
	lo := b.LoadF(in, b.SubI(gid, b.ConstI(5)))
	hi := b.LoadF(in, b.AddI(gid, b.ConstI(1000)))
	b.StoreF(out, gid, b.AddF(lo, hi))
	return b.MustBuild()
}

// carryoverKernel observes the per-worker register files surviving
// between work-items (registers are not reset between items): the first
// stores publish whatever the previous item in the chunk left behind.
func carryoverKernel() *kernelir.Kernel {
	return &kernelir.Kernel{
		Name: "carryover",
		Params: []kernelir.Param{
			{Name: "iout", IsBuffer: true, Type: kernelir.I32, Access: kernelir.ReadWrite},
			{Name: "fout", IsBuffer: true, Type: kernelir.F32, Access: kernelir.ReadWrite},
		},
		NumIntRegs:   2,
		NumFloatRegs: 2,
		Body: []kernelir.Instr{
			{Op: kernelir.OpGlobalID, Dst: 1},
			{Op: kernelir.OpStoreGI, A: 1, B: 0, Buf: 0}, // iout[gid] = r0 before r0 is written
			{Op: kernelir.OpStoreGF, A: 1, B: 0, Buf: 1}, // fout[gid] = f0 before f0 is written
			{Op: kernelir.OpAddI, Dst: 0, A: 0, B: 1},    // r0 += gid
			{Op: kernelir.OpConstF, Dst: 1, Imm: 1.5},
			{Op: kernelir.OpAddF, Dst: 0, A: 0, B: 1}, // f0 += 1.5
		},
	}
}

func collidingStores() *kernelir.Kernel {
	b := kernelir.NewBuilder("colliding_stores")
	iout := b.BufferI32("iout", kernelir.Write)
	fout := b.BufferF32("fout", kernelir.Write)
	gid := b.GlobalID()
	neg := b.ConstI(-5) // clamps to index 0: every item hits the same slot
	b.StoreI(iout, neg, gid)
	b.StoreF(fout, neg, b.IntToFloat(gid))
	return b.MustBuild()
}

func diffCases() []diffCase {
	return []diffCase{
		{
			name:  "empty",
			k:     kernelir.NewBuilder("empty").MustBuild(),
			args:  func() kernelir.Args { return kernelir.Args{} },
			items: 3,
		},
		{
			name: "int_omnibus",
			k:    intOmnibus(),
			args: func() kernelir.Args {
				return kernelir.Args{
					I32:     map[string][]int32{"in": i32ramp(8), "out": make([]int32, 8)},
					ScalarI: map[string]int64{"si": 5},
				}
			},
			items: 8,
		},
		{
			name: "float_omnibus",
			k:    floatOmnibus(),
			args: func() kernelir.Args {
				in := f32ramp(9)
				in[3] = float32(math.NaN())
				in[5] = -2.5
				return kernelir.Args{
					F32:     map[string][]float32{"in": in, "out": make([]float32, 8)},
					ScalarF: map[string]float64{"sf": 0.25},
				}
			},
			items: 8,
		},
		{
			name: "local_scratch",
			k:    localScratch(),
			args: func() kernelir.Args {
				return kernelir.Args{F32: map[string][]float32{"in": f32ramp(6), "out": make([]float32, 6)}}
			},
			items: 6,
		},
		{
			name: "grid_2d",
			k:    gridKernel(),
			args: func() kernelir.Args {
				return kernelir.Args{I32: map[string][]int32{"out": make([]int32, 10)}}
			},
			items: 10,
			nx:    4, // non-divisible width exercises %, / geometry
		},
		{
			name: "grid_linear",
			k:    gridKernel(),
			args: func() kernelir.Args {
				return kernelir.Args{I32: map[string][]int32{"out": make([]int32, 10)}}
			},
			items: 10,
			nx:    0, // degenerate 1-D: x = gid, y = 0
		},
		{
			name: "repeat_one",
			k:    repeatOne(),
			args: func() kernelir.Args {
				return kernelir.Args{F32: map[string][]float32{"in": f32ramp(4), "out": make([]float32, 4)}}
			},
			items: 4,
		},
		{
			name: "repeat_nested",
			k:    repeatNested(),
			args: func() kernelir.Args {
				return kernelir.Args{
					F32:     map[string][]float32{"in": f32ramp(64), "out": make([]float32, 6)},
					ScalarI: map[string]int64{"si": 2},
				}
			},
			items: 6,
		},
		{
			name: "max_trip_boundary",
			k:    maxTrip(),
			args: func() kernelir.Args {
				return kernelir.Args{I32: map[string][]int32{"out": make([]int32, 2)}}
			},
			items: 2,
		},
		{
			name: "oob_clamp",
			k:    oobClamp(),
			args: func() kernelir.Args {
				return kernelir.Args{F32: map[string][]float32{"in": f32ramp(8), "out": make([]float32, 8)}}
			},
			items: 8,
		},
		{
			name: "register_carryover",
			k:    carryoverKernel(),
			args: func() kernelir.Args {
				return kernelir.Args{
					I32: map[string][]int32{"iout": make([]int32, 16)},
					F32: map[string][]float32{"fout": make([]float32, 16)},
				}
			},
			items: 16,
		},
		{
			name: "colliding_stores",
			k:    collidingStores(),
			args: func() kernelir.Args {
				return kernelir.Args{
					I32: map[string][]int32{"iout": make([]int32, 4)},
					F32: map[string][]float32{"fout": make([]float32, 4)},
				}
			},
			items:      8,
			serialOnly: true,
		},
	}
}

// TestCompiledMatchesInterpreter is the differential matrix: empty
// kernels, single-iteration and MaxRepeatTrip loops, grid vs. linear
// launches, register carryover, clamped/colliding accesses — each case
// run on both paths under one worker and (when race-free) the default
// worker count, with bit-exact buffer and error comparison. It finishes
// by asserting the matrix exercises every opcode the operand table knows, so
// a new opcode cannot ship without differential coverage.
func TestCompiledMatchesInterpreter(t *testing.T) {
	cases := diffCases()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runDiff(t, c, 1)
			if !c.serialOnly {
				runDiff(t, c, 0)
			}
		})
	}

	t.Run("opcode_coverage", func(t *testing.T) {
		covered := make(map[kernelir.Op]bool)
		for _, c := range cases {
			for _, in := range c.k.Body {
				covered[in.Op] = true
			}
		}
		for _, op := range allOps() {
			if !covered[op] {
				t.Errorf("opcode %v (%d) is not exercised by the differential matrix", op, int(op))
			}
		}
	})
}

// TestCompiledStats sanity-checks that the optimizer actually fired on
// the nested-loop case: constants and invariant arithmetic hoisted out
// of the loops, accumulator/induction moves fused into their producers.
func TestCompiledStats(t *testing.T) {
	prog, err := compile.Compile(repeatNested())
	if err != nil {
		t.Fatal(err)
	}
	st := prog.Stats()
	if st.Hoisted == 0 {
		t.Errorf("expected loop-invariant hoisting on repeat_nested, got stats %+v", st)
	}
	if st.Fused < 2 {
		t.Errorf("expected move fusion of accumulator and induction updates, got stats %+v", st)
	}
	if st.Steps >= st.Instrs {
		t.Errorf("expected fewer steps than instructions after fusion, got stats %+v", st)
	}
}

// TestCompiledErrorParity proves binding and launch errors are
// byte-identical across paths, and that Compile fails exactly like the
// interpreter's Validate on malformed kernels.
func TestCompiledErrorParity(t *testing.T) {
	k := floatOmnibus()
	prog, err := compile.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	goodArgs := func() kernelir.Args {
		return kernelir.Args{
			F32:     map[string][]float32{"in": f32ramp(9), "out": make([]float32, 8)},
			ScalarF: map[string]float64{"sf": 0.25},
		}
	}

	cases := []struct {
		name  string
		args  func() kernelir.Args
		items int
	}{
		{"missing_buffer", func() kernelir.Args {
			a := goodArgs()
			delete(a.F32, "in")
			return a
		}, 8},
		{"empty_buffer", func() kernelir.Args {
			a := goodArgs()
			a.F32["out"] = nil
			a.F32["out"] = []float32{}
			return a
		}, 8},
		{"missing_scalar", func() kernelir.Args {
			a := goodArgs()
			delete(a.ScalarF, "sf")
			return a
		}, 8},
		{"zero_items", goodArgs, 0},
		{"negative_items", goodArgs, -3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			errI := kernelir.InterpretGridWorkers(k, c.args(), c.items, 0, 1)
			errC := prog.ExecuteGridWorkers(c.args(), c.items, 0, 1)
			if errI == nil || errC == nil {
				t.Fatalf("expected errors, got interpreted %v, compiled %v", errI, errC)
			}
			compareErrs(t, c.name, errI, errC)
		})
	}

	t.Run("invalid_kernel", func(t *testing.T) {
		bad := &kernelir.Kernel{
			Name:       "bad_reg",
			NumIntRegs: 1,
			Body:       []kernelir.Instr{{Op: kernelir.OpAddI, Dst: 3, A: 0, B: 0}},
		}
		_, errCompile := compile.Compile(bad)
		errInterp := kernelir.Interpret(bad, kernelir.Args{}, 4)
		if errCompile == nil || errInterp == nil {
			t.Fatalf("expected validation errors, got compile %v, interpret %v", errCompile, errInterp)
		}
		compareErrs(t, "invalid_kernel", errInterp, errCompile)
	})
}

// TestRunnerDispatch asserts that importing this package switched
// kernelir's process-wide execution to the compiled path, and that the
// dispatched execution matches the oracle bit-exactly.
func TestRunnerDispatch(t *testing.T) {
	if r := kernelir.ActiveRunner(); r != compile.Default() {
		t.Fatalf("active runner = %v, want the default compile cache", r)
	}
	k := repeatNested()
	mk := func() kernelir.Args {
		return kernelir.Args{
			F32:     map[string][]float32{"in": f32ramp(64), "out": make([]float32, 6)},
			ScalarI: map[string]int64{"si": 2},
		}
	}
	runs := compile.Default().Runs()
	aE, aI := mk(), mk()
	if err := kernelir.Execute(k, aE, 6); err != nil {
		t.Fatal(err)
	}
	if got := compile.Default().Runs(); got != runs+1 {
		t.Fatalf("Execute did not dispatch through the compiled runner: runs %d -> %d", runs, got)
	}
	if err := kernelir.Interpret(k, aI, 6); err != nil {
		t.Fatal(err)
	}
	compareBuffers(t, "runner_dispatch", aI, aE)
}
