package kernelir_test

import (
	"math"
	"slices"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/kernelir"
)

// FuzzAssembleMatchesReference holds Assemble to RefAssemble, the
// strings.Split operand parser it replaced: for any text both give the
// same kernel (the same text, fingerprint, register files and body) or
// the same error text. Seeds: every suite kernel's text, and malformed
// operand lists.
func FuzzAssembleMatchesReference(f *testing.F) {
	for _, bm := range benchsuite.All() {
		f.Add(bm.Kernel.Disassemble())
	}
	for _, line := range []string{
		"f1 = add.f",                // missing operand 1
		"f1 = add.f f0",             // missing operand 2
		"f1 = sel.f f0, f0",         // missing operand 3
		"f1 = add.f f0, f0, f0",     // one extra operand
		"f1 = add.f f0, f0, f0, f0", // two
		"i1 = gid i0",               // operands on an opcode that takes none
		"i1 = gid i0, i0",
		"f1 = add.f f0, ", // trailing ", "
		"f1 = add.f f0, f0, ",
		"f1 = add.f , f0",
		"f1 = add.f f0,f0",
		"f1 = const.f NaN",
	} {
		f.Add("kernel k(read f32[in], write f32[out]) {\n  i0 = gid\n  f0 = ld.g.f in[i0]\n  " +
			line + "\n  st.g.f out[i0], f1\n}\n")
	}
	f.Fuzz(func(t *testing.T, text string) {
		k, err := kernelir.Assemble(text)
		rk, rerr := kernelir.RefAssemble(text)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("Assemble error %v, reference error %v\n%s", err, rerr, text)
		}
		if err != nil {
			if err.Error() != rerr.Error() {
				t.Fatalf("Assemble error %q, reference %q", err, rerr)
			}
			return
		}
		if got, want := k.Disassemble(), rk.Disassemble(); got != want {
			t.Fatalf("Assemble gave\n%s\nreference\n%s", got, want)
		}
		if kernelir.Fingerprint(k) != kernelir.Fingerprint(rk) ||
			k.NumIntRegs != rk.NumIntRegs || k.NumFloatRegs != rk.NumFloatRegs ||
			!slices.EqualFunc(k.Body, rk.Body, sameInstr) {
			t.Fatalf("Assemble and the reference differ beyond the text\n%s", text)
		}
	})
}

// sameInstr compares immediates by their bits, so that NaN constants
// compare equal.
func sameInstr(a, b kernelir.Instr) bool {
	ai, bi := math.Float64bits(a.Imm), math.Float64bits(b.Imm)
	a.Imm, b.Imm = 0, 0
	return a == b && ai == bi
}
