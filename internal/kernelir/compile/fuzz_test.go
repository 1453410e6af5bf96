package compile_test

import (
	"math"
	"testing"

	"synergy/internal/kernelir"
	"synergy/internal/kernelir/compile"
)

// FuzzCompiledVsInterp drives both executors with arbitrary instruction
// streams (the FuzzAnalyze corpus scheme: 5 bytes per instruction, same
// parameter/register shape) and requires byte-identical outcomes:
//
//   - Compile must fail exactly when Validate fails, with the same error
//     the interpreter reports;
//   - for valid kernels, final buffer states must match bit-for-bit and
//     errors must match byte-for-byte, under both linear and 2-D
//     launches.
//
// Comparisons run single-worker: fuzzed kernels freely race on clamped
// stores, and one worker makes both paths fully deterministic without
// weakening coverage of the compiler itself.
func FuzzCompiledVsInterp(f *testing.F) {
	f.Add([]byte{byte(kernelir.OpGlobalID), 0, 0, 0, 0,
		byte(kernelir.OpConstF), 1, 0, 0, 3,
		byte(kernelir.OpStoreGF), 0, 0, 1, 0})
	f.Add([]byte{byte(kernelir.OpRepeatBegin), 0, 0, 0, 4,
		byte(kernelir.OpGlobalID), 1, 0, 0, 0,
		byte(kernelir.OpAddI), 2, 2, 1, 0,
		byte(kernelir.OpRepeatEnd), 0, 0, 0, 0,
		byte(kernelir.OpStoreGI), 0, 2, 2, 1})
	f.Add([]byte{byte(kernelir.OpConstI), 0, 0, 0, 6,
		byte(kernelir.OpStoreLF), 0, 0, 1, 0})
	f.Add([]byte{byte(kernelir.OpParamF), 1, 0, 0, 2,
		byte(kernelir.OpSqrtF), 2, 1, 0, 0,
		byte(kernelir.OpStoreGF), 0, 0, 2, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
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
			in := kernelir.Instr{
				Op:  kernelir.Op(int(data[i]) % opCount),
				Dst: int(data[i+1]) % (numRegs + 2),
				A:   int(data[i+2]) % (numRegs + 2),
				B:   int(data[i+3]) % (numRegs + 2),
				C:   int(data[i+3]) % (numRegs + 2),
				Imm: float64(data[i+4]%8) + 1,
				Buf: int(data[i+4]) % 4,
			}
			k.Body = append(k.Body, in)
		}

		valid := k.Validate() == nil
		if valid {
			// Bound the dynamic work (nested repeats multiply).
			work := 0.0
			if tree, err := kernelir.BuildLoopTree(k.Body); err == nil {
				tree.Walk(func(_ int, _ kernelir.Instr, mult float64) { work += mult })
			}
			if work > 1<<16 {
				return
			}
		}

		mkArgs := func() kernelir.Args {
			return kernelir.Args{
				F32:     map[string][]float32{"f": {1, 2, 3, 4, 5, 6, 7, 8}},
				I32:     map[string][]int32{"i": {8, 7, 6, 5, 4, 3, 2, 1}},
				ScalarF: map[string]float64{"s": 1.5},
			}
		}

		prog, errCompile := compile.Compile(k)
		if valid != (errCompile == nil) {
			t.Fatalf("Compile error %v but Validate error %v\n%s", errCompile, k.Validate(), k.Disassemble())
		}
		if !valid {
			errInterp := kernelir.InterpretGridWorkers(k, mkArgs(), 4, 0, 1)
			if errInterp == nil || errInterp.Error() != errCompile.Error() {
				t.Fatalf("invalid kernel: interpreter %v, compile %v", errInterp, errCompile)
			}
			return
		}

		for _, nx := range []int{0, 3} {
			ai, ac := mkArgs(), mkArgs()
			errI := kernelir.InterpretGridWorkers(k, ai, 4, nx, 1)
			errC := prog.ExecuteGridWorkers(ac, 4, nx, 1)
			if (errI == nil) != (errC == nil) || (errI != nil && errI.Error() != errC.Error()) {
				t.Fatalf("nx=%d: interpreter err %v, compiled err %v\n%s", nx, errI, errC, k.Disassemble())
			}
			for bi := range ai.F32["f"] {
				if math.Float32bits(ai.F32["f"][bi]) != math.Float32bits(ac.F32["f"][bi]) {
					t.Fatalf("nx=%d: f[%d]: interpreted %v != compiled %v\n%s",
						nx, bi, ai.F32["f"][bi], ac.F32["f"][bi], k.Disassemble())
				}
			}
			for bi := range ai.I32["i"] {
				if ai.I32["i"][bi] != ac.I32["i"][bi] {
					t.Fatalf("nx=%d: i[%d]: interpreted %d != compiled %d\n%s",
						nx, bi, ai.I32["i"][bi], ac.I32["i"][bi], k.Disassemble())
				}
			}
		}
	})
}
