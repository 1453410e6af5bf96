package kernelir

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// buildSaxpy builds z = a*x + y.
func buildSaxpy(t *testing.T) *Kernel {
	t.Helper()
	b := NewBuilder("saxpy")
	x := b.BufferF32("x", Read)
	y := b.BufferF32("y", Read)
	z := b.BufferF32("z", Write)
	a := b.ScalarF("a")
	gid := b.GlobalID()
	xv := b.LoadF(x, gid)
	yv := b.LoadF(y, gid)
	prod := b.MulF(a, xv)
	sum := b.AddF(prod, yv)
	b.StoreF(z, gid, sum)
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSaxpyExecution(t *testing.T) {
	t.Parallel()
	k := buildSaxpy(t)
	n := 1000
	x := make([]float32, n)
	y := make([]float32, n)
	z := make([]float32, n)
	for i := range x {
		x[i] = float32(i)
		y[i] = float32(2 * i)
	}
	args := Args{
		F32:     map[string][]float32{"x": x, "y": y, "z": z},
		ScalarF: map[string]float64{"a": 3},
	}
	if err := Execute(k, args, n); err != nil {
		t.Fatal(err)
	}
	for i := range z {
		want := float32(3*i + 2*i)
		if z[i] != want {
			t.Fatalf("z[%d] = %v, want %v", i, z[i], want)
		}
	}
}

func TestRepeatAccumulation(t *testing.T) {
	t.Parallel()
	// out[gid] = sum over 16 iterations of in[gid] (i.e., 16*in[gid]).
	b := NewBuilder("acc")
	in := b.BufferF32("in", Read)
	out := b.BufferF32("out", Write)
	gid := b.GlobalID()
	acc := b.ConstF(0)
	b.Repeat(16, func() {
		v := b.LoadF(in, gid)
		s := b.AddF(acc, v)
		b.MoveF(acc, s)
	})
	b.StoreF(out, gid, acc)
	k := b.MustBuild()

	n := 64
	inBuf := make([]float32, n)
	outBuf := make([]float32, n)
	for i := range inBuf {
		inBuf[i] = float32(i) * 0.5
	}
	if err := Execute(k, Args{F32: map[string][]float32{"in": inBuf, "out": outBuf}}, n); err != nil {
		t.Fatal(err)
	}
	for i := range outBuf {
		if want := 16 * inBuf[i]; outBuf[i] != want {
			t.Fatalf("out[%d] = %v, want %v", i, outBuf[i], want)
		}
	}
}

func TestNestedRepeat(t *testing.T) {
	t.Parallel()
	// out[gid] = 3*4 = 12 increments of 1.
	b := NewBuilder("nested")
	out := b.BufferF32("out", Write)
	gid := b.GlobalID()
	one := b.ConstF(1)
	acc := b.ConstF(0)
	b.Repeat(3, func() {
		b.Repeat(4, func() {
			s := b.AddF(acc, one)
			b.MoveF(acc, s)
		})
	})
	b.StoreF(out, gid, acc)
	k := b.MustBuild()

	outBuf := make([]float32, 8)
	if err := Execute(k, Args{F32: map[string][]float32{"out": outBuf}}, len(outBuf)); err != nil {
		t.Fatal(err)
	}
	for i, v := range outBuf {
		if v != 12 {
			t.Fatalf("out[%d] = %v, want 12", i, v)
		}
	}
}

func TestIndexClamping(t *testing.T) {
	t.Parallel()
	// Stencil-style load at gid-1 must clamp at the left edge.
	b := NewBuilder("clamp")
	in := b.BufferF32("in", Read)
	out := b.BufferF32("out", Write)
	gid := b.GlobalID()
	one := b.ConstI(1)
	left := b.SubI(gid, one)
	v := b.LoadF(in, left)
	b.StoreF(out, gid, v)
	k := b.MustBuild()

	inBuf := []float32{10, 20, 30, 40}
	outBuf := make([]float32, 4)
	if err := Execute(k, Args{F32: map[string][]float32{"in": inBuf, "out": outBuf}}, 4); err != nil {
		t.Fatal(err)
	}
	want := []float32{10, 10, 20, 30}
	for i := range want {
		if outBuf[i] != want[i] {
			t.Fatalf("out = %v, want %v", outBuf, want)
		}
	}
}

func TestIntOpsSemantics(t *testing.T) {
	t.Parallel()
	// Each case computes one op over scalar params and stores to out[0].
	cases := []struct {
		name string
		op   func(b *Builder, x, y IntReg) IntReg
		x, y int64
		want int32
	}{
		{"add", (*Builder).AddI, 5, 3, 8},
		{"sub", (*Builder).SubI, 5, 3, 2},
		{"mul", (*Builder).MulI, 5, 3, 15},
		{"div", (*Builder).DivI, 17, 5, 3},
		{"div0", (*Builder).DivI, 17, 0, 0},
		{"rem", (*Builder).RemI, 17, 5, 2},
		{"rem0", (*Builder).RemI, 17, 0, 0},
		{"min", (*Builder).MinI, 5, 3, 3},
		{"max", (*Builder).MaxI, 5, 3, 5},
		{"and", (*Builder).AndI, 12, 10, 8},
		{"or", (*Builder).OrI, 12, 10, 14},
		{"xor", (*Builder).XorI, 12, 10, 6},
		{"shl", (*Builder).ShlI, 3, 2, 12},
		{"shr", (*Builder).ShrI, 12, 2, 3},
		{"cmplt", (*Builder).CmpLTI, 3, 5, 1},
		{"cmpeq", (*Builder).CmpEQI, 5, 5, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder(c.name)
			out := b.BufferI32("out", Write)
			x := b.ScalarI("x")
			y := b.ScalarI("y")
			zero := b.ConstI(0)
			r := c.op(b, x, y)
			b.StoreI(out, zero, r)
			k := b.MustBuild()
			outBuf := make([]int32, 1)
			args := Args{
				I32:     map[string][]int32{"out": outBuf},
				ScalarI: map[string]int64{"x": c.x, "y": c.y},
			}
			if err := Execute(k, args, 1); err != nil {
				t.Fatal(err)
			}
			if outBuf[0] != c.want {
				t.Fatalf("%s(%d, %d) = %d, want %d", c.name, c.x, c.y, outBuf[0], c.want)
			}
		})
	}
}

func TestSelectAndCompareFloat(t *testing.T) {
	t.Parallel()
	// out[gid] = in[gid] < 0 ? -in[gid] : in[gid]  (abs via select)
	b := NewBuilder("selabs")
	in := b.BufferF32("in", Read)
	out := b.BufferF32("out", Write)
	gid := b.GlobalID()
	v := b.LoadF(in, gid)
	zero := b.ConstF(0)
	neg := b.NegF(v)
	isNeg := b.CmpLTF(v, zero)
	r := b.SelF(isNeg, neg, v)
	b.StoreF(out, gid, r)
	k := b.MustBuild()

	inBuf := []float32{-2, 3, -0.5, 0}
	outBuf := make([]float32, 4)
	if err := Execute(k, Args{F32: map[string][]float32{"in": inBuf, "out": outBuf}}, 4); err != nil {
		t.Fatal(err)
	}
	for i, v := range inBuf {
		want := float32(math.Abs(float64(v)))
		if outBuf[i] != want {
			t.Fatalf("out[%d] = %v, want %v", i, outBuf[i], want)
		}
	}
}

func TestSpecialFunctions(t *testing.T) {
	t.Parallel()
	b := NewBuilder("sf")
	out := b.BufferF32("out", Write)
	x := b.ScalarF("x")
	i0 := b.ConstI(0)
	i1 := b.ConstI(1)
	i2 := b.ConstI(2)
	i3 := b.ConstI(3)
	b.StoreF(out, i0, b.SqrtF(x))
	b.StoreF(out, i1, b.ExpF(x))
	b.StoreF(out, i2, b.SinF(x))
	b.StoreF(out, i3, b.ErfF(x))
	k := b.MustBuild()
	outBuf := make([]float32, 4)
	args := Args{F32: map[string][]float32{"out": outBuf}, ScalarF: map[string]float64{"x": 0.7}}
	if err := Execute(k, args, 1); err != nil {
		t.Fatal(err)
	}
	want := []float64{math.Sqrt(0.7), math.Exp(0.7), math.Sin(0.7), math.Erf(0.7)}
	for i := range want {
		if math.Abs(float64(outBuf[i])-want[i]) > 1e-6 {
			t.Fatalf("sf[%d] = %v, want %v", i, outBuf[i], want[i])
		}
	}
}

func TestLocalMemory(t *testing.T) {
	t.Parallel()
	// Write gid to local[0], read it back, store to out.
	b := NewBuilder("local")
	out := b.BufferF32("out", Write)
	b.Local(4)
	gid := b.GlobalID()
	zero := b.ConstI(0)
	gf := b.IntToFloat(gid)
	b.StoreLocal(zero, gf)
	v := b.LoadLocal(zero)
	b.StoreF(out, gid, v)
	k := b.MustBuild()
	outBuf := make([]float32, 16)
	if err := Execute(k, Args{F32: map[string][]float32{"out": outBuf}}, 16); err != nil {
		t.Fatal(err)
	}
	for i, v := range outBuf {
		if v != float32(i) {
			t.Fatalf("out[%d] = %v (local memory not per-work-item?)", i, v)
		}
	}
}

func TestValidateRejectsStoreToReadOnly(t *testing.T) {
	t.Parallel()
	k := &Kernel{
		Name:         "bad",
		Params:       []Param{{Name: "in", IsBuffer: true, Type: F32, Access: Read}},
		Body:         []Instr{{Op: OpStoreGF, A: 0, B: 0, Buf: 0}},
		NumIntRegs:   1,
		NumFloatRegs: 1,
	}
	if err := k.Validate(); err == nil {
		t.Fatal("store to read-only buffer accepted")
	}
}

func TestValidateRejectsLoadFromWriteOnly(t *testing.T) {
	t.Parallel()
	k := &Kernel{
		Name:         "bad",
		Params:       []Param{{Name: "out", IsBuffer: true, Type: F32, Access: Write}},
		Body:         []Instr{{Op: OpLoadGF, Dst: 0, A: 0, Buf: 0}},
		NumIntRegs:   1,
		NumFloatRegs: 1,
	}
	if err := k.Validate(); err == nil {
		t.Fatal("load from write-only buffer accepted")
	}
}

func TestValidateRejectsRegisterOutOfRange(t *testing.T) {
	t.Parallel()
	k := &Kernel{
		Name:         "bad",
		Body:         []Instr{{Op: OpAddI, Dst: 5, A: 0, B: 0}},
		NumIntRegs:   2,
		NumFloatRegs: 0,
	}
	if err := k.Validate(); err == nil {
		t.Fatal("out-of-range register accepted")
	}
}

// A hand-built instruction whose opcode lies outside the operand table
// gets an error naming its pc and opcode, not an index-out-of-range
// panic.
func TestValidateRejectsUnknownOpcode(t *testing.T) {
	t.Parallel()
	for _, op := range []Op{99, opCount, -1} {
		k := &Kernel{Name: "bad", Body: []Instr{{Op: OpConstI, Dst: 0}, {Op: op}}, NumIntRegs: 1}
		err := k.Validate()
		if want := fmt.Sprintf("instr 1: unknown opcode %d", int(op)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("opcode %d: Validate = %v, want an error containing %q", int(op), err, want)
		}
	}
}

func TestValidateRejectsUnbalancedRepeat(t *testing.T) {
	t.Parallel()
	k := &Kernel{Name: "bad", Body: []Instr{{Op: OpRepeatBegin, Imm: 2}}}
	if err := k.Validate(); err == nil {
		t.Fatal("unclosed repeat accepted")
	}
	k = &Kernel{Name: "bad", Body: []Instr{{Op: OpRepeatEnd}}}
	if err := k.Validate(); err == nil {
		t.Fatal("unmatched repeat end accepted")
	}
}

func TestValidateRejectsNonIntegerTripCount(t *testing.T) {
	t.Parallel()
	k := &Kernel{Name: "bad", Body: []Instr{{Op: OpRepeatBegin, Imm: 2.5}, {Op: OpRepeatEnd}}}
	if err := k.Validate(); err == nil {
		t.Fatal("fractional trip count accepted")
	}
}

func TestValidateRejectsLocalAccessWithoutLocal(t *testing.T) {
	t.Parallel()
	k := &Kernel{
		Name:         "bad",
		Body:         []Instr{{Op: OpLoadLF, Dst: 0, A: 0}},
		NumIntRegs:   1,
		NumFloatRegs: 1,
	}
	if err := k.Validate(); err == nil {
		t.Fatal("local access without declared local memory accepted")
	}
}

func TestExecuteMissingArguments(t *testing.T) {
	t.Parallel()
	k := buildSaxpy(t)
	err := Execute(k, Args{F32: map[string][]float32{"x": {1}, "y": {1}}}, 1)
	if err == nil {
		t.Fatal("missing buffer accepted")
	}
	err = Execute(k, Args{F32: map[string][]float32{"x": {1}, "y": {1}, "z": {0}}}, 1)
	if err == nil {
		t.Fatal("missing scalar accepted")
	}
}

func TestExecuteRejectsNonPositiveItems(t *testing.T) {
	t.Parallel()
	k := buildSaxpy(t)
	args := Args{
		F32:     map[string][]float32{"x": {1}, "y": {1}, "z": {0}},
		ScalarF: map[string]float64{"a": 1},
	}
	if err := Execute(k, args, 0); err == nil {
		t.Fatal("zero items accepted")
	}
}

func TestBuilderReuseAfterBuildPanics(t *testing.T) {
	t.Parallel()
	b := NewBuilder("k")
	out := b.BufferF32("out", Write)
	gid := b.GlobalID()
	v := b.ConstF(1)
	b.StoreF(out, gid, v)
	b.MustBuild()
	defer func() {
		if recover() == nil {
			t.Fatal("builder reuse did not panic")
		}
	}()
	b.ConstF(2)
}

func TestParamIndex(t *testing.T) {
	t.Parallel()
	k := buildSaxpy(t)
	if i, ok := k.ParamIndex("y"); !ok || i != 1 {
		t.Fatalf("ParamIndex(y) = %d, %v", i, ok)
	}
	if _, ok := k.ParamIndex("nope"); ok {
		t.Fatal("ParamIndex found a non-existent parameter")
	}
}

func TestExecuteParallelDeterminism(t *testing.T) {
	t.Parallel()
	k := buildSaxpy(t)
	n := 1 << 14
	run := func() []float32 {
		x := make([]float32, n)
		y := make([]float32, n)
		z := make([]float32, n)
		for i := range x {
			x[i] = float32(i % 97)
			y[i] = float32(i % 13)
		}
		args := Args{
			F32:     map[string][]float32{"x": x, "y": y, "z": z},
			ScalarF: map[string]float64{"a": 1.5},
		}
		if err := Execute(k, args, n); err != nil {
			t.Fatal(err)
		}
		return z
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic result at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPartition pins the work-item partition every executor shares:
// contiguous chunks of ceil(items/workers), no more workers than items,
// and GOMAXPROCS workers for workers <= 0.
func TestPartition(t *testing.T) {
	chunks := func(items, workers int) [][2]int {
		var mu sync.Mutex
		var got [][2]int
		Partition(items, workers, func(lo, hi int) {
			mu.Lock()
			got = append(got, [2]int{lo, hi})
			mu.Unlock()
		})
		slices.SortFunc(got, func(a, b [2]int) int { return a[0] - b[0] })
		return got
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, c := range []struct {
		items, workers int
		want           [][2]int
	}{
		{10, 4, [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}},
		{3, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{5, 1, [][2]int{{0, 5}}},
		{10, 0, [][2]int{{0, 4}, {4, 8}, {8, 10}}},
		{10, -2, [][2]int{{0, 4}, {4, 8}, {8, 10}}},
		{0, 4, nil},
	} {
		if got := chunks(c.items, c.workers); !slices.Equal(got, c.want) {
			t.Errorf("%d items over %d workers: chunks %v, want %v", c.items, c.workers, got, c.want)
		}
	}
}

func TestExecuteGrid2D(t *testing.T) {
	t.Parallel()
	// out[y*nx+x] = 100*y + x, via GlobalID2 (no div/rem index math).
	b := NewBuilder("grid2d")
	out := b.BufferF32("out", Write)
	gid := b.GlobalID()
	x, y := b.GlobalID2()
	v := b.AddF(b.MulF(b.IntToFloat(y), b.ConstF(100)), b.IntToFloat(x))
	b.StoreF(out, gid, v)
	k := b.MustBuild()

	const nx, ny = 8, 5
	buf := make([]float32, nx*ny)
	if err := ExecuteGrid(k, Args{F32: map[string][]float32{"out": buf}}, nx*ny, nx); err != nil {
		t.Fatal(err)
	}
	for yy := 0; yy < ny; yy++ {
		for xx := 0; xx < nx; xx++ {
			if got, want := buf[yy*nx+xx], float32(100*yy+xx); got != want {
				t.Fatalf("out[%d,%d] = %v, want %v", yy, xx, got, want)
			}
		}
	}
}

func TestGlobalID2Degenerates1D(t *testing.T) {
	t.Parallel()
	b := NewBuilder("deg")
	out := b.BufferF32("out", Write)
	gid := b.GlobalID()
	x, y := b.GlobalID2()
	v := b.AddF(b.IntToFloat(x), b.MulF(b.IntToFloat(y), b.ConstF(1000)))
	b.StoreF(out, gid, v)
	k := b.MustBuild()
	buf := make([]float32, 6)
	if err := Execute(k, Args{F32: map[string][]float32{"out": buf}}, 6); err != nil {
		t.Fatal(err)
	}
	for i, v := range buf {
		if v != float32(i) {
			t.Fatalf("1-D launch: out[%d] = %v, want %d (y must be 0)", i, v, i)
		}
	}
}

func TestGlobalID2IsFreeInFeatures(t *testing.T) {
	t.Parallel()
	// 2-D indexing costs no feature counts (unlike div/rem decomposition)
	// — verified indirectly: the kernel above has only the store counted.
	b := NewBuilder("free2d")
	out := b.BufferF32("out", Write)
	gid := b.GlobalID()
	x, _ := b.GlobalID2()
	b.StoreF(out, gid, b.IntToFloat(x))
	k := b.MustBuild()
	if got := len(k.Body); got != 5 {
		t.Fatalf("unexpected body length %d", got)
	}
}
