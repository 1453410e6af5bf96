package kernelir

import (
	"testing"
)

// FuzzValidateAndExecute feeds arbitrary instruction streams through the
// validator and — when a stream validates — through the interpreter. The
// invariant: Validate never panics, and any kernel it accepts executes
// without panicking (total interpreter).
func FuzzValidateAndExecute(f *testing.F) {
	// Seed with a plausible encoded program and some junk.
	f.Add([]byte{byte(OpGlobalID), 0, 0, 0, 0, byte(OpConstF), 1, 0, 0, 3,
		byte(OpStoreGF), 0, 0, 1, 0})
	f.Add([]byte{byte(OpRepeatBegin), 0, 0, 0, 4, byte(OpAddI), 0, 0, 0, 0,
		byte(OpRepeatEnd), 0, 0, 0, 0})
	f.Add([]byte{255, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		k := fuzzKernel(data)
		if err := k.Validate(); err != nil {
			return // rejected streams are fine; no panic happened
		}
		args := Args{
			F32:     map[string][]float32{"f": make([]float32, 8)},
			I32:     map[string][]int32{"i": make([]int32, 8)},
			ScalarF: map[string]float64{"s": 1.5},
		}
		if err := Execute(k, args, 4); err != nil {
			t.Fatalf("validated kernel failed to execute: %v", err)
		}
	})
}

// fuzzKernel decodes a fuzz input into a kernel over three parameters
// and two 4-register files: each 5-byte group is one instruction whose
// registers and parameter index may fall out of range, up to 64
// instructions. The result need not validate.
func fuzzKernel(data []byte) *Kernel {
	const numRegs = 4
	k := &Kernel{
		Name: "fuzz",
		Params: []Param{
			{Name: "f", IsBuffer: true, Type: F32, Access: ReadWrite},
			{Name: "i", IsBuffer: true, Type: I32, Access: ReadWrite},
			{Name: "s", Type: F32},
		},
		NumIntRegs:   numRegs,
		NumFloatRegs: numRegs,
		LocalF32:     2,
	}
	for i := 0; i+5 <= len(data) && len(k.Body) < 64; i += 5 {
		k.Body = append(k.Body, Instr{
			Op:  Op(int(data[i]) % int(opCount)),
			Dst: int(data[i+1]) % (numRegs + 2), // may exceed range
			A:   int(data[i+2]) % (numRegs + 2),
			B:   int(data[i+3]) % (numRegs + 2),
			C:   int(data[i+3]) % (numRegs + 2),
			Imm: float64(data[i+4]%8) + 1,
			Buf: int(data[i+4]) % 4, // may exceed params
		})
	}
	return k
}
