package kernelir

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses the pseudo-assembly produced by Kernel.Disassemble
// back into a kernel — the inverse used by tooling and by the
// round-trip fuzz target. Register-file sizes are inferred as the
// smallest files covering every referenced register, and operand fields
// unused by an opcode come back as zero, so Assemble(k.Disassemble())
// is equivalent to k (identical re-disassembly and execution) without
// being structurally identical.
func Assemble(text string) (*Kernel, error) {
	lines := strings.Split(text, "\n")
	if len(lines) == 0 {
		return nil, fmt.Errorf("kernelir: empty assembly")
	}
	k, err := parseHeader(strings.TrimSpace(lines[0]))
	if err != nil {
		return nil, err
	}
	depth := 0
	closed := false
	for no, raw := range lines[1:] {
		line := strings.TrimSpace(raw)
		fail := func(format string, args ...any) error {
			return fmt.Errorf("kernelir: asm line %d: %s", no+2, fmt.Sprintf(format, args...))
		}
		switch {
		case line == "":
			continue
		case closed:
			return nil, fail("content after closing brace: %q", line)
		case line == "}":
			if depth > 0 {
				depth--
				k.Body = append(k.Body, Instr{Op: OpRepeatEnd})
				continue
			}
			closed = true
		case strings.HasPrefix(line, "local f32["):
			n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(line, "local f32["), "]"))
			if err != nil || n <= 0 {
				return nil, fail("bad local declaration %q", line)
			}
			k.LocalF32 = n
		case strings.HasPrefix(line, "repeat "):
			body := strings.TrimSuffix(strings.TrimPrefix(line, "repeat "), " {")
			n, err := strconv.Atoi(body)
			if err != nil {
				return nil, fail("bad repeat count %q", body)
			}
			if n < 1 || n > MaxRepeatTrip {
				return nil, fail("repeat trip count %d outside [1, %d]", n, MaxRepeatTrip)
			}
			if depth == MaxDepth {
				return nil, fail("repeat nesting deeper than %d", MaxDepth)
			}
			k.Body = append(k.Body, Instr{Op: OpRepeatBegin, Imm: float64(n)})
			depth++
		default:
			in, err := parseInstr(k, line)
			if err != nil {
				return nil, fail("%v", err)
			}
			k.Body = append(k.Body, in)
		}
	}
	if !closed {
		return nil, fmt.Errorf("kernelir: assembly missing closing brace")
	}
	inferRegFiles(k)
	return k, nil
}

func parseHeader(line string) (*Kernel, error) {
	const prefix = "kernel "
	if !strings.HasPrefix(line, prefix) || !strings.HasSuffix(line, "{") {
		return nil, fmt.Errorf("kernelir: malformed kernel header %q", line)
	}
	rest := strings.TrimSuffix(strings.TrimPrefix(line, prefix), "{")
	open := strings.IndexByte(rest, '(')
	close_ := strings.LastIndexByte(rest, ')')
	if open < 0 || close_ < open {
		return nil, fmt.Errorf("kernelir: malformed parameter list in %q", line)
	}
	// Names are cloned: a substring would keep the whole source text
	// alive for as long as the kernel lives (in a memo, say).
	k := &Kernel{Name: strings.Clone(rest[:open])}
	if k.Name == "" {
		return nil, fmt.Errorf("kernelir: kernel has no name")
	}
	for _, tail := range strings.Fields(rest[close_+1:]) {
		v, ok := strings.CutPrefix(tail, "traffic=")
		if !ok {
			return nil, fmt.Errorf("kernelir: unexpected header attribute %q", tail)
		}
		tf, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("kernelir: bad traffic factor %q", v)
		}
		k.TrafficFactor = tf
	}
	params := strings.TrimSpace(rest[open+1 : close_])
	if params == "" {
		return k, nil
	}
	for _, ps := range strings.Split(params, ", ") {
		p, err := parseParam(ps)
		if err != nil {
			return nil, err
		}
		k.Params = append(k.Params, p)
	}
	return k, nil
}

func parseParam(s string) (Param, error) {
	fields := strings.Fields(s)
	switch len(fields) {
	case 2:
		// Buffer: "read f32[a]"; scalar: "f32 s".
		if t, rest, ok := splitBracketed(fields[1]); ok {
			acc, err := parseAccess(fields[0])
			if err != nil {
				return Param{}, err
			}
			st, err := parseScalarType(t)
			if err != nil {
				return Param{}, err
			}
			return Param{Name: strings.Clone(rest), IsBuffer: true, Type: st, Access: acc}, nil
		}
		st, err := parseScalarType(fields[0])
		if err != nil {
			return Param{}, err
		}
		return Param{Name: strings.Clone(fields[1]), Type: st}, nil
	default:
		return Param{}, fmt.Errorf("kernelir: malformed parameter %q", s)
	}
}

// splitBracketed splits "f32[a]" into ("f32", "a", true).
func splitBracketed(s string) (head, inner string, ok bool) {
	open := strings.IndexByte(s, '[')
	if open < 0 || !strings.HasSuffix(s, "]") {
		return "", "", false
	}
	return s[:open], s[open+1 : len(s)-1], true
}

func parseAccess(s string) (AccessMode, error) {
	switch s {
	case "read":
		return Read, nil
	case "write":
		return Write, nil
	case "read_write":
		return ReadWrite, nil
	}
	return 0, fmt.Errorf("kernelir: unknown access mode %q", s)
}

func parseScalarType(s string) (ScalarType, error) {
	switch s {
	case "i32":
		return I32, nil
	case "f32":
		return F32, nil
	}
	return 0, fmt.Errorf("kernelir: unknown scalar type %q", s)
}

// opsByName maps each mnemonic to its opcode.
var opsByName = func() map[string]Op {
	m := make(map[string]Op, int(opCount))
	for op := Op(0); op < opCount; op++ {
		m[op.String()] = op
	}
	return m
}()

func parseInstr(k *Kernel, line string) (Instr, error) {
	var in Instr
	body := line
	dstTok := ""
	if lhs, rhs, ok := strings.Cut(line, " = "); ok {
		dstTok, body = lhs, rhs
	}
	mnemonic, operands, _ := strings.Cut(body, " ")
	op, ok := opsByName[mnemonic]
	if !ok {
		return in, fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	in.Op = op
	info := op.Info()
	if info.Writes != (dstTok != "") {
		return in, fmt.Errorf("%s: destination mismatch in %q", op, line)
	}
	if info.Writes {
		d, err := parseReg(dstTok, info.DstFile)
		if err != nil {
			return in, err
		}
		in.Dst = d
	}
	paramIdx := func(name string) (int, error) {
		if i, ok := k.ParamIndex(name); ok {
			return i, nil
		}
		return 0, fmt.Errorf("%s: unknown parameter %q", op, name)
	}
	memIdx := func(tok, wantHead string) (int, error) {
		head, inner, ok := splitBracketed(tok)
		if !ok || (wantHead != "" && head != wantHead) {
			return 0, fmt.Errorf("%s: malformed address %q", op, tok)
		}
		if wantHead == "" {
			b, err := paramIdx(head)
			if err != nil {
				return 0, err
			}
			in.Buf = b
		}
		return parseReg(inner, I32)
	}
	switch op {
	case OpConstI:
		n, err := strconv.ParseInt(operands, 10, 64)
		if err != nil {
			return in, fmt.Errorf("const.i: bad immediate %q", operands)
		}
		in.Imm = float64(n)
	case OpConstF:
		f, err := strconv.ParseFloat(operands, 64)
		if err != nil {
			return in, fmt.Errorf("const.f: bad immediate %q", operands)
		}
		in.Imm = f
	case OpParamI, OpParamF:
		b, err := paramIdx(operands)
		if err != nil {
			return in, err
		}
		in.Buf = b
	case OpLoadGF, OpLoadGI, OpLoadLF, OpStoreGF, OpStoreGI, OpStoreLF:
		// "buf[i3]" or "local[i3]", then the stored value, if any.
		head := ""
		if info.IsLocal {
			head = "local"
		}
		addr, val, store := operands, "", !info.Writes
		if store {
			var ok bool
			if addr, val, ok = strings.Cut(operands, ", "); !ok {
				return in, fmt.Errorf("%s: malformed operands %q", op, operands)
			}
		}
		a, err := memIdx(addr, head)
		if err != nil {
			return in, err
		}
		in.A = a
		if store {
			if in.B, err = parseReg(val, info.Srcs[1]); err != nil {
				return in, err
			}
		}
	default:
		var toks []string
		if operands != "" {
			toks = strings.Split(operands, ", ")
		}
		for i, file := range info.Srcs {
			if i >= len(toks) {
				return in, fmt.Errorf("%s: missing operand %d", op, i+1)
			}
			r, err := parseReg(toks[i], file)
			if err != nil {
				return in, err
			}
			in.SetRead(i, r)
		}
		if extra := len(toks) - len(info.Srcs); extra > 0 {
			return in, fmt.Errorf("%s: %d extra operand(s) in %q", op, extra, line)
		}
	}
	return in, nil
}

// inferRegFiles sizes the register files to the smallest extent covering
// every referenced register.
func inferRegFiles(k *Kernel) {
	need := func(r Reg) {
		size := &k.NumIntRegs
		if r.File == F32 {
			size = &k.NumFloatRegs
		}
		*size = max(*size, r.N+1)
	}
	for _, in := range k.Body {
		if w, ok := in.Write(); ok {
			need(w)
		}
		rs, n := in.Reads()
		for _, r := range rs[:n] {
			need(r)
		}
	}
}
