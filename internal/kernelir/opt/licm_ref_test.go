package opt

import (
	"slices"
	"testing"

	"synergy/internal/kernelir"
)

// refHoistable is the quadratic hoistable that rescanned the loop for
// every candidate, kept as the oracle for FuzzHoistableMatchesReference:
// the one-scan hoistable must pick the same pcs for every loop, or the
// optimized kernels, their rewrite logs and every fingerprint keyed on
// them would move.
func refHoistable(out []kernelir.Instr, begin, end int) []int {
	lo, hi := begin+1, end
	reads := func(in kernelir.Instr) []kernelir.Reg {
		rs, n := in.Reads()
		return rs[:n]
	}
	var picks []int
	for pc := lo; pc < hi; pc++ {
		in := out[pc]
		if !pureOp(in) {
			continue
		}
		if divisorMayBeZero(out, in) {
			continue
		}
		dst, _ := in.Write()
		// Destination written exactly once in the subtree, by this
		// instruction.
		writes := 0
		for q := lo; q < hi; q++ {
			if w, ok := out[q].Write(); ok && w == dst {
				writes++
			}
		}
		if writes != 1 {
			continue
		}
		// Never read in the subtree at or before its definition.
		readEarly := false
		for q := lo; q <= pc && !readEarly; q++ {
			for _, r := range reads(out[q]) {
				if r == dst {
					readEarly = true
				}
			}
		}
		if readEarly {
			continue
		}
		// Operands invariant: no writes to them anywhere in the subtree.
		invariant := true
		for _, r := range reads(in) {
			for q := lo; q < hi; q++ {
				if w, ok := out[q].Write(); ok && w == r {
					invariant = false
				}
			}
		}
		if !invariant {
			continue
		}
		picks = append(picks, pc)
	}
	return picks
}

// divisorMayBeZero and uniqueConstDef are the body-rescanning divisor
// test refHoistable keeps: LICM reads the same facts from one count of
// the pass's input (loopUse.mayDivideByZero).
func divisorMayBeZero(body []kernelir.Instr, in kernelir.Instr) bool {
	switch in.Op {
	case kernelir.OpDivI, kernelir.OpRemI:
		imm, ok := uniqueConstDef(body, kernelir.Reg{File: kernelir.I32, N: in.B})
		return !ok || int64(imm) == 0
	case kernelir.OpDivF:
		imm, ok := uniqueConstDef(body, kernelir.Reg{File: kernelir.F32, N: in.B})
		return !ok || imm == 0 // catches ±0.0
	}
	return false
}

// uniqueConstDef returns the value of r's definition, if r is written
// exactly once in body and that write is an OpConstI/OpConstF.
func uniqueConstDef(body []kernelir.Instr, r kernelir.Reg) (float64, bool) {
	var def *kernelir.Instr
	for pc := range body {
		if w, ok := body[pc].Write(); ok && w == r {
			if def != nil {
				return 0, false // multiply defined
			}
			def = &body[pc]
		}
	}
	if def == nil || (def.Op != kernelir.OpConstI && def.Op != kernelir.OpConstF) {
		return 0, false
	}
	return def.Imm, true
}

// fuzzOptKernel decodes a fuzz input as FuzzOptVsInterp does: 5 bytes
// per instruction over three parameters and two 4-register files, up
// to 64 instructions. The result need not validate.
func fuzzOptKernel(data []byte) *kernelir.Kernel {
	const numRegs = 4
	opCount := int(kernelir.OpRepeatEnd) + 1
	k := &kernelir.Kernel{
		Name: "fuzz",
		Params: []kernelir.Param{
			{Name: "f", IsBuffer: true, Type: kernelir.F32, Access: kernelir.ReadWrite},
			{Name: "i", IsBuffer: true, Type: kernelir.I32, Access: kernelir.ReadWrite},
			{Name: "s", Type: kernelir.F32},
		},
		NumIntRegs:   numRegs,
		NumFloatRegs: numRegs,
		LocalF32:     2,
	}
	for i := 0; i+5 <= len(data) && len(k.Body) < 64; i += 5 {
		k.Body = append(k.Body, kernelir.Instr{
			Op:  kernelir.Op(int(data[i]) % opCount),
			Dst: int(data[i+1]) % (numRegs + 2),
			A:   int(data[i+2]) % (numRegs + 2),
			B:   int(data[i+3]) % (numRegs + 2),
			C:   int(data[i+3]) % (numRegs + 2),
			Imm: float64(data[i+4]%8) + 1,
			Buf: int(data[i+4]) % 4,
		})
	}
	return k
}

// checkHoistable drains every loop of k as licmPass does, in ascending
// order of end pcs and batch after batch, and requires each batch's
// picks to equal refHoistable's on the same body. The drained body and
// its log must then be licmPass's.
func checkHoistable(t *testing.T, k *kernelir.Kernel) {
	t.Helper()
	tree, err := kernelir.BuildLoopTree(k.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := append([]kernelir.Instr(nil), k.Body...)
	s := newScratch(k).loop.reset(k.Body)
	var rws []Rewrite
	for end, in := range k.Body {
		if in.Op != kernelir.OpRepeatEnd {
			continue
		}
		begin := tree.Match(end)
		for batch := 0; ; batch++ {
			got, want := s.hoistable(body, begin, end), refHoistable(body, begin, end)
			if !slices.Equal(got, want) {
				t.Fatalf("batch %d, repeat at pc %d: hoistable picked %v, reference %v\n%s",
					batch, begin, got, want, k.WithBody(body).Disassemble())
			}
			if len(got) == 0 {
				break
			}
			rws = s.hoist(body, begin, got, rws)
			begin += len(got)
		}
	}
	out, passRws := licmPass(newScratch(k), k.Body, tree, nil)
	if !slices.Equal(out, body) || !slices.Equal(passRws, rws) {
		t.Fatalf("licmPass differs from the checked drain:\n%s\n-- drain --\n%s",
			k.WithBody(out).Disassemble(), k.WithBody(body).Disassemble())
	}
}

// FuzzHoistableMatchesReference requires the one-scan hoistable to pick
// exactly refHoistable's pcs for every loop of every valid decoded
// kernel, through every LICM batch.
func FuzzHoistableMatchesReference(f *testing.F) {
	f.Add([]byte{byte(kernelir.OpRepeatBegin), 0, 0, 0, 4,
		byte(kernelir.OpGlobalID), 1, 0, 0, 0,
		byte(kernelir.OpAddI), 2, 2, 1, 0,
		byte(kernelir.OpRepeatEnd), 0, 0, 0, 0,
		byte(kernelir.OpStoreGI), 0, 2, 2, 1})
	f.Add([]byte{byte(kernelir.OpRepeatBegin), 0, 0, 0, 8,
		byte(kernelir.OpConstF), 1, 0, 0, 2,
		byte(kernelir.OpSqrtF), 2, 1, 0, 0,
		byte(kernelir.OpRepeatBegin), 0, 0, 0, 2,
		byte(kernelir.OpMulF), 3, 2, 2, 0,
		byte(kernelir.OpAddF), 0, 0, 3, 0,
		byte(kernelir.OpRepeatEnd), 0, 0, 0, 0,
		byte(kernelir.OpRepeatEnd), 0, 0, 0, 0,
		byte(kernelir.OpStoreGF), 0, 0, 0, 0})
	f.Add([]byte{byte(kernelir.OpConstI), 1, 0, 0, 3,
		byte(kernelir.OpRepeatBegin), 0, 0, 0, 3,
		byte(kernelir.OpDivI), 2, 0, 1, 0,
		byte(kernelir.OpRemI), 3, 2, 2, 0,
		byte(kernelir.OpMoveI), 0, 3, 0, 0,
		byte(kernelir.OpRepeatEnd), 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		k := fuzzOptKernel(data)
		if k.Validate() != nil {
			return
		}
		checkHoistable(t, k)
	})
}
