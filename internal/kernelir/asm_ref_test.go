package kernelir

import (
	"fmt"
	"strconv"
	"strings"
)

// RefAssemble and refParseInstr are the assembler as it was before
// parseInstr walked its operands with strings.Cut: it split each
// operand list with strings.Split. They stay as the oracle for
// FuzzAssembleMatchesReference, which runs in the external test
// package so that it can seed from the suite: Assemble must give the
// reference's kernel, or its error text byte for byte.
func RefAssemble(text string) (*Kernel, error) {
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
			in, err := refParseInstr(k, line)
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

func refParseInstr(k *Kernel, line string) (Instr, error) {
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
