package kernelir

import (
	"fmt"
	"strconv"
)

// OpInfo is one opcode's row of the operand table: the registers it
// reads and writes and how it touches parameters and memory. The table
// is built once; Validate, Assemble, the disassembler, the checked
// executor, the optimizer, the analyzer and the compiler all read it
// through Op.Info and the Instr methods below, so none of them can
// disagree with execution about what an instruction reads.
type OpInfo struct {
	// Writes reports that the op writes Dst, a register of file DstFile.
	Writes  bool
	DstFile ScalarType
	// Srcs holds the files of the registers the op reads, in slot order:
	// A, then B, then C. No op reads a later slot without the earlier.
	Srcs []ScalarType
	// UsesBuf reports that Instr.Buf indexes Params.
	UsesBuf bool
	// IsScalarParam, IsMemOp and IsLocal mark scalar parameter reads,
	// global buffer accesses and local scratch accesses.
	IsScalarParam, IsMemOp, IsLocal bool
	// BufElem is the element type of a parameter or buffer access.
	BufElem ScalarType
}

var opTable = buildOpTable()

func buildOpTable() (t [opCount]OpInfo) {
	i, f := I32, F32
	reg := func(dst ScalarType, srcs ...ScalarType) OpInfo {
		return OpInfo{Writes: true, DstFile: dst, Srcs: srcs}
	}
	set := func(info OpInfo, ops ...Op) {
		for _, op := range ops {
			t[op] = info
		}
	}
	set(reg(i), OpConstI, OpGlobalID, OpGlobalIDX, OpGlobalIDY)
	set(reg(f), OpConstF)
	set(reg(i, i), OpMoveI)
	set(reg(f, f), OpMoveF)
	set(reg(f, i), OpCvtIF)
	set(reg(i, f), OpCvtFI)
	set(reg(i, i, i), OpAddI, OpSubI, OpMinI, OpMaxI, OpCmpLTI, OpCmpEQI, OpMulI, OpDivI, OpRemI,
		OpAndI, OpOrI, OpXorI, OpShlI, OpShrI)
	set(reg(i, i, i, i), OpSelI)
	set(reg(f, f, f), OpAddF, OpSubF, OpMinF, OpMaxF, OpMulF, OpDivF, OpPowF)
	set(reg(f, f), OpAbsF, OpNegF, OpSqrtF, OpExpF, OpLogF, OpSinF, OpCosF, OpErfF)
	set(reg(i, f, f), OpCmpLTF)
	set(reg(f, f, f, i), OpSelF)
	t[OpParamI] = OpInfo{Writes: true, DstFile: i, UsesBuf: true, IsScalarParam: true, BufElem: i}
	t[OpParamF] = OpInfo{Writes: true, DstFile: f, UsesBuf: true, IsScalarParam: true, BufElem: f}
	t[OpLoadGF] = OpInfo{Writes: true, DstFile: f, Srcs: []ScalarType{i}, UsesBuf: true, IsMemOp: true, BufElem: f}
	t[OpStoreGF] = OpInfo{Srcs: []ScalarType{i, f}, UsesBuf: true, IsMemOp: true, BufElem: f}
	t[OpLoadGI] = OpInfo{Writes: true, DstFile: i, Srcs: []ScalarType{i}, UsesBuf: true, IsMemOp: true, BufElem: i}
	t[OpStoreGI] = OpInfo{Srcs: []ScalarType{i, i}, UsesBuf: true, IsMemOp: true, BufElem: i}
	t[OpLoadLF] = OpInfo{Writes: true, DstFile: f, Srcs: []ScalarType{i}, IsLocal: true}
	t[OpStoreLF] = OpInfo{Srcs: []ScalarType{i, f}, IsLocal: true}
	// OpRepeatBegin and OpRepeatEnd touch no register.
	return t
}

// Info returns op's row of the operand table; callers must not modify
// it. It panics on an opcode outside the table (see Valid).
func (op Op) Info() *OpInfo { return &opTable[op] }

// Valid reports whether op is in the operand table. Assemble and the
// Builder only make such opcodes; Validate refuses a hand-built
// instruction with any other.
func (op Op) Valid() bool { return op >= 0 && op < opCount }

// Reg names one register: a file and an index into it, spelled i3 or
// f2 in .kir text, errors and diagnostics.
type Reg struct {
	File ScalarType
	N    int
}

// String returns the register's spelling.
func (r Reg) String() string { return string(r.appendTo(nil)) }

func (r Reg) appendTo(b []byte) []byte {
	return strconv.AppendInt(append(b, r.File.regLetter()), int64(r.N), 10)
}

// regLetter is the letter that starts the name of a register of file t.
func (t ScalarType) regLetter() byte {
	if t == I32 {
		return 'i'
	}
	return 'f'
}

// parseReg parses a register of the given file and keeps it inside a
// MaxRegs-sized file.
func parseReg(tok string, file ScalarType) (int, error) {
	if tok == "" || tok[0] != file.regLetter() {
		return 0, fmt.Errorf("operand %q is not a %s register", tok, file)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad register %q", tok)
	}
	if n >= MaxRegs {
		return 0, fmt.Errorf("register %q outside a %d-register file", tok, MaxRegs)
	}
	return n, nil
}

// slotNames names the read slots in errors.
var slotNames = [3]string{"A", "B", "C"}

// Reads returns the registers in reads, in slot order (A, B, C), as
// rs[:n].
func (in Instr) Reads() (rs [3]Reg, n int) {
	srcs := in.Op.Info().Srcs
	regs := [3]int{in.A, in.B, in.C}
	for i, file := range srcs {
		rs[i] = Reg{File: file, N: regs[i]}
	}
	return rs, len(srcs)
}

// Write returns the register in writes, if it writes one.
func (in Instr) Write() (Reg, bool) {
	info := in.Op.Info()
	if !info.Writes {
		return Reg{}, false
	}
	return Reg{File: info.DstFile, N: in.Dst}, true
}

// SetRead makes read slot i (0 for A, 1 for B, 2 for C) name register
// n of the slot's file.
func (in *Instr) SetRead(i, n int) {
	switch i {
	case 0:
		in.A = n
	case 1:
		in.B = n
	default:
		in.C = n
	}
}

// FileSize returns the number of registers in k's file t.
func (k *Kernel) FileSize(t ScalarType) int {
	if t == I32 {
		return k.NumIntRegs
	}
	return k.NumFloatRegs
}

// NumRegs returns the number of registers in both of k's files, the
// size of the flat index RegIndex maps into.
func (k *Kernel) NumRegs() int { return k.NumIntRegs + k.NumFloatRegs }

// RegIndex returns r's flat index in k: the int file first, then the
// float file. A pass keeps its per-register state in one slice of
// NumRegs entries. r must lie inside its file.
func (k *Kernel) RegIndex(r Reg) int {
	if r.File == I32 {
		return r.N
	}
	return k.NumIntRegs + r.N
}
