package kernelir

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// refDisassemble is the fmt-based renderer the strconv appender
// replaced, kept as the oracle for FuzzDisassembleMatchesReference: the
// appender must reproduce its text byte for byte, or every fingerprint,
// every fingerprint-keyed memo key and every .kir file would move.
func refDisassemble(k *Kernel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s(", k.Name)
	for i, p := range k.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		if p.IsBuffer {
			fmt.Fprintf(&b, "%s %s[%s]", p.Access, p.Type, p.Name)
		} else {
			fmt.Fprintf(&b, "%s %s", p.Type, p.Name)
		}
	}
	b.WriteString(")")
	if k.TrafficFactor > 0 && k.TrafficFactor != 1 {
		b.WriteString(" traffic=" + strconv.FormatFloat(k.TrafficFactor, 'g', -1, 64))
	}
	b.WriteString(" {\n")
	if k.LocalF32 > 0 {
		fmt.Fprintf(&b, "  local f32[%d]\n", k.LocalF32)
	}
	depth := 1
	for pc := range k.Body {
		if k.Body[pc].Op == OpRepeatEnd {
			depth--
		}
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(refInstrString(k, pc))
		b.WriteByte('\n')
		if k.Body[pc].Op == OpRepeatBegin {
			depth++
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// refInstrString is InstrString as the fmt-based renderer wrote it.
func refInstrString(k *Kernel, pc int) string {
	if pc < 0 || pc >= len(k.Body) {
		return fmt.Sprintf("<pc %d out of range>", pc)
	}
	in := k.Body[pc]
	c := class(in.Op)
	var b strings.Builder
	switch in.Op {
	case OpRepeatBegin:
		fmt.Fprintf(&b, "repeat %d {", int(in.Imm))
		return b.String()
	case OpRepeatEnd:
		return "}"
	}
	if c.hasDst {
		fmt.Fprintf(&b, "%s%d = ", filePrefix(c.dstFile), in.Dst)
	}
	b.WriteString(in.Op.String())
	switch in.Op {
	case OpConstI:
		fmt.Fprintf(&b, " %d", int64(in.Imm))
	case OpConstF:
		fmt.Fprintf(&b, " %g", in.Imm)
	case OpParamI, OpParamF:
		fmt.Fprintf(&b, " %s", refParamName(k, in.Buf))
	case OpLoadGF, OpLoadGI:
		fmt.Fprintf(&b, " %s[i%d]", refParamName(k, in.Buf), in.A)
	case OpStoreGF:
		fmt.Fprintf(&b, " %s[i%d], f%d", refParamName(k, in.Buf), in.A, in.B)
	case OpStoreGI:
		fmt.Fprintf(&b, " %s[i%d], i%d", refParamName(k, in.Buf), in.A, in.B)
	case OpLoadLF:
		fmt.Fprintf(&b, " local[i%d]", in.A)
	case OpStoreLF:
		fmt.Fprintf(&b, " local[i%d], f%d", in.A, in.B)
	default:
		if c.hasA {
			fmt.Fprintf(&b, " %s%d", filePrefix(c.aFile), in.A)
		}
		if c.hasB {
			fmt.Fprintf(&b, ", %s%d", filePrefix(c.bFile), in.B)
		}
		if c.hasC {
			fmt.Fprintf(&b, ", %s%d", filePrefix(c.cFile), in.C)
		}
	}
	return b.String()
}

func refParamName(k *Kernel, buf int) string {
	if buf < 0 || buf >= len(k.Params) {
		return fmt.Sprintf("<param %d>", buf)
	}
	return k.Params[buf].Name
}

// Immediates and traffic factors whose rendering needs care: ±Inf, NaN,
// −0, the smallest subnormal, both sides of %g's switch to exponent
// form, integers past 2^53 and values no float prints exactly.
var (
	constEdges = [...]float64{
		math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 5e-324,
		1e21, 1e20, 1e-5, 1e-4, 0.1, -2.5e-7, 123456789, 1<<53 + 2, -7, 3,
	}
	trafficEdges = [...]float64{0, 1, 0.5, 1.0 / 3, 5e-324, 0.9999999999999999}
)

// FuzzDisassembleMatchesReference holds the strconv appender to the
// fmt renderer: FuzzDisasmRoundTrip's instruction streams, valid or
// not, with const immediates and the traffic factor drawn from the edge
// values above, must disassemble to the reference's bytes, render every
// pc from -1 to len(Body) as the reference does, and fingerprint to the
// SHA-256 of the reference text.
func FuzzDisassembleMatchesReference(f *testing.F) {
	f.Add([]byte{byte(OpGlobalID), 0, 0, 0, 0, byte(OpConstF), 1, 0, 0, 3,
		byte(OpStoreGF), 0, 0, 1, 0})
	f.Add([]byte{byte(OpRepeatBegin), 0, 0, 0, 4, byte(OpAddI), 0, 0, 0, 0,
		byte(OpRepeatEnd), 0, 0, 0, 0})
	f.Add([]byte{byte(OpLoadLF), 1, 2, 3, 4, byte(OpSelF), 0, 1, 2, 3})
	var edges []byte
	for i := range constEdges {
		edges = append(edges, byte(OpConstF), 0, 0, 0, byte(i), byte(OpConstI), 1, 0, 0, byte(i))
	}
	f.Add(edges)
	f.Add([]byte{byte(OpRepeatEnd), 0, 0, 0, 0, byte(OpRepeatEnd), 0, 0, 0, 0, byte(OpParamF), 5, 0, 0, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		k := fuzzKernel(data)
		for i := range k.Body {
			if op := k.Body[i].Op; op == OpConstF || op == OpConstI {
				k.Body[i].Imm = constEdges[int(data[5*i+4])%len(constEdges)]
			}
		}
		if len(data) > 0 {
			k.TrafficFactor = trafficEdges[int(data[0])%len(trafficEdges)]
		}
		for pc := -1; pc <= len(k.Body); pc++ {
			if got, want := k.InstrString(pc), refInstrString(k, pc); got != want {
				t.Fatalf("InstrString(%d) = %q, reference %q", pc, got, want)
			}
		}
		got, fp := k.Disassemble(), Fingerprint(k)
		want, ok := func() (text string, ok bool) {
			// The reference panics on a body with more repeat ends than
			// begins (a negative strings.Repeat count); there is no text
			// to match.
			defer func() { ok = recover() == nil }()
			return refDisassemble(k), true
		}()
		if !ok {
			return
		}
		if got != want {
			t.Fatalf("Disassemble diverged:\n--- got\n%s--- reference\n%s", got, want)
		}
		sum := sha256.Sum256([]byte(want))
		if want := hex.EncodeToString(sum[:16]); fp != want {
			t.Fatalf("Fingerprint %s, SHA-256 of the reference text %s", fp, want)
		}
	})
}
