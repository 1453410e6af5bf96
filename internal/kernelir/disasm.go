package kernelir

import (
	"fmt"
	"strconv"
	"strings"
)

// Disassemble renders the kernel as readable pseudo-assembly: the
// parameter list, local declaration and one line per instruction with
// Repeat blocks indented. Useful for debugging kernels and for
// inspecting what the feature-extraction pass sees.
func (k *Kernel) Disassemble() string {
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
		// Shortest exact form: Assemble must recover the factor bit for
		// bit, or a kernel and its text round trip would share a
		// fingerprint but not a ground truth.
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
		b.WriteString(k.InstrString(pc))
		b.WriteByte('\n')
		if k.Body[pc].Op == OpRepeatBegin {
			depth++
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// InstrString renders one body instruction exactly as Disassemble prints
// it, minus indentation — e.g. "f3 = mul.f f0, f1", "repeat 16 {", "}".
// The static analyzer uses it to anchor diagnostics to source lines.
func (k *Kernel) InstrString(pc int) string {
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
		fmt.Fprintf(&b, " %s", k.paramName(in.Buf))
	case OpLoadGF, OpLoadGI:
		fmt.Fprintf(&b, " %s[i%d]", k.paramName(in.Buf), in.A)
	case OpStoreGF:
		fmt.Fprintf(&b, " %s[i%d], f%d", k.paramName(in.Buf), in.A, in.B)
	case OpStoreGI:
		fmt.Fprintf(&b, " %s[i%d], i%d", k.paramName(in.Buf), in.A, in.B)
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

// paramName tolerates out-of-range parameter indices so InstrString can
// render diagnostics even for kernels Validate rejects.
func (k *Kernel) paramName(buf int) string {
	if buf < 0 || buf >= len(k.Params) {
		return fmt.Sprintf("<param %d>", buf)
	}
	return k.Params[buf].Name
}

func filePrefix(t ScalarType) string {
	if t == I32 {
		return "i"
	}
	return "f"
}
