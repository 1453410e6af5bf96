package kernelir

import "strconv"

// Disassemble renders the kernel as readable pseudo-assembly: the
// parameter list, local declaration and one line per instruction with
// Repeat blocks indented. Useful for debugging kernels and for
// inspecting what the feature-extraction pass sees.
func (k *Kernel) Disassemble() string { return string(k.text()) }

// text renders the kernel's .kir text, exactly what Disassemble returns,
// into one byte slice. Numbers go through strconv: %d is AppendInt and
// %g is AppendFloat(f, 'g', -1, 64), so the text is byte for byte what
// the fmt renderer this replaced produced, and so is every fingerprint.
func (k *Kernel) text() []byte {
	b := make([]byte, 0, 64+32*len(k.Params)+24*len(k.Body))
	b = cat(b, "kernel ", k.Name, "(")
	for i, p := range k.Params {
		if i > 0 {
			b = cat(b, ", ")
		}
		if p.IsBuffer {
			b = cat(b, p.Access.String(), " ", p.Type.String(), "[", p.Name, "]")
		} else {
			b = cat(b, p.Type.String(), " ", p.Name)
		}
	}
	b = cat(b, ")")
	if k.TrafficFactor > 0 && k.TrafficFactor != 1 {
		// Shortest exact form: Assemble must recover the factor bit for
		// bit, or a kernel and its text round trip would share a
		// fingerprint but not a ground truth.
		b = strconv.AppendFloat(cat(b, " traffic="), k.TrafficFactor, 'g', -1, 64)
	}
	b = cat(b, " {\n")
	if k.LocalF32 > 0 {
		b = cat(strconv.AppendInt(cat(b, "  local f32["), int64(k.LocalF32), 10), "]\n")
	}
	depth := 1
	for pc := range k.Body {
		if k.Body[pc].Op == OpRepeatEnd {
			depth--
		}
		for range depth {
			b = cat(b, "  ")
		}
		b = cat(k.appendInstr(b, pc), "\n")
		if k.Body[pc].Op == OpRepeatBegin {
			depth++
		}
	}
	return cat(b, "}\n")
}

// InstrString renders one body instruction exactly as Disassemble prints
// it, minus indentation — e.g. "f3 = mul.f f0, f1", "repeat 16 {", "}".
// The static analyzer uses it to anchor diagnostics to source lines.
func (k *Kernel) InstrString(pc int) string { return string(k.appendInstr(nil, pc)) }

// appendInstr appends InstrString(pc) to b.
func (k *Kernel) appendInstr(b []byte, pc int) []byte {
	if pc < 0 || pc >= len(k.Body) {
		return cat(strconv.AppendInt(cat(b, "<pc "), int64(pc), 10), " out of range>")
	}
	in := k.Body[pc]
	c := class(in.Op)
	switch in.Op {
	case OpRepeatBegin:
		return cat(strconv.AppendInt(cat(b, "repeat "), int64(int(in.Imm)), 10), " {")
	case OpRepeatEnd:
		return cat(b, "}")
	}
	if c.hasDst {
		b = cat(appendReg(b, c.dstFile, in.Dst), " = ")
	}
	b = cat(b, in.Op.String())
	switch {
	case in.Op == OpConstI:
		b = strconv.AppendInt(cat(b, " "), int64(in.Imm), 10)
	case in.Op == OpConstF:
		b = strconv.AppendFloat(cat(b, " "), in.Imm, 'g', -1, 64)
	case c.isScalar:
		b = cat(b, " ", k.paramName(in.Buf))
	case c.isBufOp || c.isLocal:
		// "buf[i3]" or "local[i3]", then the stored value, if any.
		name := "local"
		if c.isBufOp {
			name = k.paramName(in.Buf)
		}
		b = cat(strconv.AppendInt(cat(b, " ", name, "[i"), int64(in.A), 10), "]")
		if c.hasB {
			b = appendReg(cat(b, ", "), c.bFile, in.B)
		}
	default:
		if c.hasA {
			b = appendReg(cat(b, " "), c.aFile, in.A)
		}
		if c.hasB {
			b = appendReg(cat(b, ", "), c.bFile, in.B)
		}
		if c.hasC {
			b = appendReg(cat(b, ", "), c.cFile, in.C)
		}
	}
	return b
}

// cat appends each string to b.
func cat(b []byte, ss ...string) []byte {
	for _, s := range ss {
		b = append(b, s...)
	}
	return b
}

// appendReg appends a register name: "i3", "f0".
func appendReg(b []byte, file ScalarType, r int) []byte {
	return strconv.AppendInt(cat(b, filePrefix(file)), int64(r), 10)
}

// paramName tolerates out-of-range parameter indices so InstrString can
// render diagnostics even for kernels Validate rejects.
func (k *Kernel) paramName(buf int) string {
	if buf < 0 || buf >= len(k.Params) {
		return "<param " + strconv.Itoa(buf) + ">"
	}
	return k.Params[buf].Name
}

func filePrefix(t ScalarType) string {
	if t == I32 {
		return "i"
	}
	return "f"
}
