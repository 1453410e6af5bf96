package kernelir

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestValidateRejectsTripCountBounds(t *testing.T) {
	t.Parallel()
	mk := func(trip float64) *Kernel {
		return &Kernel{
			Name:       "trips",
			NumIntRegs: 1,
			Body: []Instr{
				{Op: OpRepeatBegin, Imm: trip},
				{Op: OpConstI, Dst: 0, Imm: 1},
				{Op: OpRepeatEnd},
			},
		}
	}
	for _, trip := range []float64{0, -1, -7, MaxRepeatTrip + 1, 1e18} {
		if err := mk(trip).Validate(); err == nil {
			t.Errorf("Validate accepted trip count %v", trip)
		}
	}
	for _, trip := range []float64{1, 2, MaxRepeatTrip} {
		if err := mk(trip).Validate(); err != nil {
			t.Errorf("Validate rejected trip count %v: %v", trip, err)
		}
	}
}

func TestBuilderRepeatRejectsTripCountBounds(t *testing.T) {
	t.Parallel()
	for _, count := range []int{0, -4, MaxRepeatTrip + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Builder.Repeat accepted count %d", count)
				}
			}()
			b := NewBuilder("bad")
			b.Repeat(count, func() {})
		}()
	}
}

// TestRegisterFilesBounded: Assemble, Validate and the Builder all keep
// each register file within MaxRegs.
func TestRegisterFilesBounded(t *testing.T) {
	t.Parallel()
	asm := func(reg string) string {
		return "kernel regs(write f32[out]) {\n  i0 = gid\n  " + reg + " = const.f 1\n  st.g.f out[i0], " + reg + "\n}\n"
	}
	k, err := Assemble(asm(fmt.Sprintf("f%d", MaxRegs-1)))
	if err != nil || k.NumFloatRegs != MaxRegs {
		t.Fatalf("Assemble at the bound: %v", err)
	}
	for _, reg := range []string{fmt.Sprintf("f%d", MaxRegs), "f20000000", "f200000000"} {
		if _, err := Assemble(asm(reg)); err == nil {
			t.Errorf("Assemble accepted register %s", reg)
		}
	}

	for _, n := range [][2]int{{MaxRegs + 1, 1}, {1, MaxRegs + 1}, {-1, 1}, {1, -1}} {
		bad := &Kernel{Name: "regs", NumIntRegs: n[0], NumFloatRegs: n[1]}
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %d int and %d float registers", n[0], n[1])
		}
	}

	b := NewBuilder("regs")
	for range MaxRegs {
		b.ConstI(0)
	}
	if k, err := b.Build(); err != nil || k.NumIntRegs != MaxRegs {
		t.Fatalf("Builder at the bound: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Builder allocated a register past MaxRegs")
		}
	}()
	b = NewBuilder("regs")
	for range MaxRegs + 1 {
		b.ConstF(0)
	}
}

// TestRepeatDepthBounded: Assemble, Validate and the Builder all accept
// MaxDepth nested repeats and refuse MaxDepth+1.
func TestRepeatDepthBounded(t *testing.T) {
	t.Parallel()
	asm := func(depth int) string {
		return "kernel nest(write f32[out]) {\n  i0 = gid\n" + strings.Repeat("repeat 2 {\n", depth) +
			"  f0 = const.f 1\n  st.g.f out[i0], f0\n" + strings.Repeat("}\n", depth) + "}\n"
	}
	k, err := Assemble(asm(MaxDepth))
	if err != nil {
		t.Fatalf("Assemble at the bound: %v", err)
	}
	if err := k.Validate(); err != nil {
		t.Fatalf("Validate at the bound: %v", err)
	}
	if _, err := Assemble(asm(MaxDepth + 1)); err == nil || !strings.Contains(err.Error(), "nesting") {
		t.Errorf("Assemble past the bound: %v", err)
	}
	deep := k.WithBody(append(append([]Instr{{Op: OpRepeatBegin, Imm: 2}}, k.Body...), Instr{Op: OpRepeatEnd}))
	if err := deep.Validate(); err == nil || !strings.Contains(err.Error(), "nesting") {
		t.Errorf("Validate past the bound: %v", err)
	}

	var nest func(b *Builder, depth int)
	nest = func(b *Builder, depth int) {
		if depth > 0 {
			b.Repeat(2, func() { nest(b, depth-1) })
		}
	}
	b := NewBuilder("nest")
	nest(b, MaxDepth)
	if _, err := b.Build(); err != nil {
		t.Fatalf("Builder at the bound: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Builder nested a repeat past MaxDepth")
		}
	}()
	nest(NewBuilder("nest"), MaxDepth+1)
}

func TestBuildLoopTree(t *testing.T) {
	t.Parallel()
	body := []Instr{
		{Op: OpConstI, Dst: 0, Imm: 1},   // 0
		{Op: OpRepeatBegin, Imm: 4},      // 1
		{Op: OpRepeatBegin, Imm: 2},      // 2
		{Op: OpAddI, Dst: 0, A: 0, B: 0}, // 3
		{Op: OpRepeatEnd},                // 4
		{Op: OpRepeatEnd},                // 5
		{Op: OpRepeatBegin, Imm: 3},      // 6
		{Op: OpRepeatEnd},                // 7
	}
	tree, err := BuildLoopTree(body)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(root.Children))
	}
	outer, empty := root.Children[0], root.Children[1]
	if outer.Begin != 1 || outer.End != 5 || outer.Trip != 4 {
		t.Fatalf("outer node = %+v", outer)
	}
	if len(outer.Children) != 1 || outer.Children[0].Begin != 2 || outer.Children[0].End != 4 {
		t.Fatalf("inner node = %+v", outer.Children[0])
	}
	if empty.Begin != 6 || empty.End != 7 || empty.Trip != 3 {
		t.Fatalf("empty node = %+v", empty)
	}
	if tree.Match(1) != 5 || tree.Match(5) != 1 || tree.Match(2) != 4 {
		t.Fatal("Match inconsistent with nesting")
	}
	// Walk multiplies nested trip counts.
	mults := map[int]float64{}
	tree.Walk(func(pc int, _ Instr, mult float64) { mults[pc] = mult })
	if want := map[int]float64{0: 1, 3: 8}; !reflect.DeepEqual(mults, want) {
		t.Fatalf("Walk mults = %v, want %v", mults, want)
	}

	for _, bad := range [][]Instr{
		{{Op: OpRepeatEnd}},
		{{Op: OpRepeatBegin, Imm: 2}},
		{{Op: OpRepeatBegin, Imm: 2}, {Op: OpRepeatEnd}, {Op: OpRepeatEnd}},
	} {
		if _, err := BuildLoopTree(bad); err == nil {
			t.Errorf("BuildLoopTree accepted unbalanced body %+v", bad)
		}
	}
}

// checkedKernel builds a kernel with a parameterisable body over one
// read-write buffer and 4 local words.
func checkedKernel(body []Instr) *Kernel {
	return &Kernel{
		Name: "checked",
		Params: []Param{
			{Name: "out", IsBuffer: true, Type: F32, Access: ReadWrite},
		},
		NumIntRegs:   4,
		NumFloatRegs: 4,
		LocalF32:     4,
		Body:         body,
	}
}

func checkedArgs() Args {
	return Args{F32: map[string][]float32{"out": make([]float32, 8)}}
}

func TestExecuteCheckedFlagsUninitializedRead(t *testing.T) {
	t.Parallel()
	k := checkedKernel([]Instr{
		{Op: OpGlobalID, Dst: 0},
		{Op: OpAddF, Dst: 1, A: 2, B: 3}, // f2, f3 never written
		{Op: OpStoreGF, A: 0, B: 1, Buf: 0},
	})
	err := ExecuteChecked(k, checkedArgs(), 4)
	var ce *CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("ExecuteChecked = %v, want CheckError", err)
	}
	if ce.PC != 1 || ce.Item != -1 || !strings.Contains(ce.Msg, "f2") {
		t.Fatalf("CheckError = %+v", ce)
	}
}

func TestExecuteCheckedFlagsLocalOOB(t *testing.T) {
	t.Parallel()
	k := checkedKernel([]Instr{
		{Op: OpGlobalID, Dst: 0},       // i0 = gid in [0, 8)
		{Op: OpConstF, Dst: 0, Imm: 1}, // f0 = 1
		{Op: OpStoreLF, A: 0, B: 0},    // local[gid]: OOB for gid >= 4
		{Op: OpLoadLF, Dst: 1, A: 0},
		{Op: OpStoreGF, A: 0, B: 1, Buf: 0},
	})
	err := ExecuteChecked(k, checkedArgs(), 8)
	var ce *CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("ExecuteChecked = %v, want CheckError", err)
	}
	if ce.PC != 2 {
		t.Fatalf("CheckError pc = %d, want 2 (first offending access): %+v", ce.PC, ce)
	}
	if ce.Item < 4 {
		t.Fatalf("CheckError item = %d, want >= 4: %+v", ce.Item, ce)
	}

	// The same kernel over only the in-bounds items is clean.
	if err := ExecuteChecked(k, checkedArgs(), 4); err != nil {
		t.Fatalf("ExecuteChecked over in-bounds items = %v", err)
	}
}

func TestExecuteCheckedMatchesExecuteOnCleanKernel(t *testing.T) {
	t.Parallel()
	k := sampleKernel() // uses repeat, local memory and clamped indices
	// sampleKernel reads f0..f2 after writing them and keeps local
	// indices at gid (< LocalF32 for small launches).
	a1, a2 := sampleArgs(), sampleArgs()
	if err := Execute(k, a1, 3); err != nil {
		t.Fatal(err)
	}
	if err := ExecuteChecked(k, a2, 3); err != nil {
		t.Fatalf("ExecuteChecked = %v, want clean run", err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("checked execution changed outputs:\n%+v\n%+v", a1, a2)
	}
}

func sampleArgs() Args {
	return Args{
		F32: map[string][]float32{
			"x": {1, 2, 3},
			"y": {4, 5, 6},
		},
		ScalarI: map[string]int64{"n": 3},
		ScalarF: map[string]float64{"a": 0.5},
	}
}

func TestInstrStringMatchesDisassembly(t *testing.T) {
	t.Parallel()
	k := sampleKernel()
	dis := k.Disassemble()
	for pc := range k.Body {
		line := k.InstrString(pc)
		if !strings.Contains(dis, line) {
			t.Errorf("InstrString(%d) = %q not found in disassembly:\n%s", pc, line, dis)
		}
	}
	if got := k.InstrString(len(k.Body)); !strings.Contains(got, "out of range") {
		t.Errorf("InstrString out of range = %q", got)
	}
}
