package kernelir

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func sampleKernel() *Kernel {
	return &Kernel{
		Name: "saxpy",
		Params: []Param{
			{Name: "x", IsBuffer: true, Type: F32, Access: Read},
			{Name: "y", IsBuffer: true, Type: F32, Access: ReadWrite},
			{Name: "n", Type: I32},
			{Name: "a", Type: F32},
		},
		NumIntRegs:   2,
		NumFloatRegs: 4,
		LocalF32:     3,
		Body: []Instr{
			{Op: OpGlobalID, Dst: 0},
			{Op: OpParamF, Dst: 0, Buf: 3},
			{Op: OpLoadGF, Dst: 1, A: 0, Buf: 0},
			{Op: OpLoadGF, Dst: 2, A: 0, Buf: 1},
			{Op: OpRepeatBegin, Imm: 3},
			{Op: OpMulF, Dst: 3, A: 0, B: 1},
			{Op: OpAddF, Dst: 2, A: 3, B: 2},
			{Op: OpRepeatEnd},
			{Op: OpStoreLF, A: 0, B: 2},
			{Op: OpLoadLF, Dst: 2, A: 0},
			{Op: OpStoreGF, A: 0, B: 2, Buf: 1},
		},
		TrafficFactor: 0.5,
	}
}

func TestAssembleRoundTripsDisassembly(t *testing.T) {
	t.Parallel()
	k := sampleKernel()
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	text := k.Disassemble()
	k2, err := Assemble(text)
	if err != nil {
		t.Fatalf("Assemble failed on:\n%s\n%v", text, err)
	}
	if err := k2.Validate(); err != nil {
		t.Fatalf("assembled kernel invalid: %v", err)
	}
	if got := k2.Disassemble(); got != text {
		t.Fatalf("round trip diverged:\n--- original\n%s--- reassembled\n%s", text, got)
	}
	if !reflect.DeepEqual(k2.Body, k.Body) {
		t.Fatalf("instruction stream changed:\n%+v\n%+v", k2.Body, k.Body)
	}
}

// The kernel and parameter names Assemble returns must be copies, not
// substrings of its input: a kernel kept in a memo would otherwise pin
// the whole source text (a daemon's request body, for one).
func TestAssembledNamesDoNotAliasInput(t *testing.T) {
	t.Parallel()
	text := sampleKernel().Disassemble()
	k, err := Assemble(text)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	hi := lo + uintptr(len(text))
	names := []string{k.Name}
	for _, p := range k.Params {
		names = append(names, p.Name)
	}
	for _, name := range names {
		if at := uintptr(unsafe.Pointer(unsafe.StringData(name))); at >= lo && at < hi {
			t.Errorf("name %q points into the assembly text", name)
		}
	}
}

func TestAssembleRejectsMalformedInput(t *testing.T) {
	t.Parallel()
	good := sampleKernel().Disassemble()
	cases := []string{
		"",
		"not a kernel",
		strings.Replace(good, "kernel saxpy", "kernel", 1),
		strings.Replace(good, "add.f", "bogus.op", 1),
		strings.Replace(good, "x[i0]", "zz[i0]", 1),
		strings.Replace(good, "f3 = mul.f f0, f1", "f3 = mul.f f0", 1),
		strings.Replace(good, "f3 = mul.f f0, f1", "f3 = mul.f i0, f1", 1),
		strings.Replace(good, "repeat 3 {", "repeat three {", 1),
		strings.Replace(good, "repeat 3 {", "repeat 0 {", 1),
		strings.Replace(good, "repeat 3 {", "repeat -3 {", 1),
		strings.Replace(good, "repeat 3 {", "repeat 1048577 {", 1), // MaxRepeatTrip + 1
		strings.TrimSuffix(good, "}\n"),
		good + "trailing garbage",
	}
	for _, text := range cases {
		if _, err := Assemble(text); err == nil {
			t.Errorf("Assemble accepted malformed input:\n%s", text)
		}
	}
}

// FuzzDisasmRoundTrip checks build → disassemble → assemble → equivalent
// kernel: any kernel the validator accepts must re-assemble from its own
// disassembly into a kernel with identical disassembly and identical
// execution results.
func FuzzDisasmRoundTrip(f *testing.F) {
	f.Add([]byte{byte(OpGlobalID), 0, 0, 0, 0, byte(OpConstF), 1, 0, 0, 3,
		byte(OpStoreGF), 0, 0, 1, 0})
	f.Add([]byte{byte(OpRepeatBegin), 0, 0, 0, 4, byte(OpAddI), 0, 0, 0, 0,
		byte(OpRepeatEnd), 0, 0, 0, 0})
	f.Add([]byte{byte(OpLoadLF), 1, 2, 3, 4, byte(OpSelF), 0, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		k := fuzzKernel(data)
		if err := k.Validate(); err != nil {
			return
		}
		text := k.Disassemble()
		k2, err := Assemble(text)
		if err != nil {
			t.Fatalf("Assemble rejected valid disassembly: %v\n%s", err, text)
		}
		if err := k2.Validate(); err != nil {
			t.Fatalf("reassembled kernel invalid: %v\n%s", err, text)
		}
		if got := k2.Disassemble(); got != text {
			t.Fatalf("round trip diverged:\n--- original\n%s--- reassembled\n%s", text, got)
		}
		// Execution equivalence on identical inputs.
		newArgs := func() Args {
			return Args{
				F32:     map[string][]float32{"f": {1, 2, 3, 4, 5, 6, 7, 8}},
				I32:     map[string][]int32{"i": {8, 7, 6, 5, 4, 3, 2, 1}},
				ScalarF: map[string]float64{"s": 1.5},
			}
		}
		a1, a2 := newArgs(), newArgs()
		if err := Execute(k, a1, 4); err != nil {
			t.Fatalf("original kernel failed: %v", err)
		}
		if err := Execute(k2, a2, 4); err != nil {
			t.Fatalf("reassembled kernel failed: %v", err)
		}
		if !reflect.DeepEqual(a1, a2) {
			t.Fatalf("execution diverged after round trip:\n%+v\n%+v", a1, a2)
		}
	})
}
