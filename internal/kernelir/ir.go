// Package kernelir defines the kernel intermediate representation the
// SYnergy reproduction uses in place of SYCL device code. Kernels are
// straight-line register programs (with statically-bounded Repeat blocks)
// over two typed register files, global buffers and a per-work-item local
// scratch. The representation serves three purposes at once:
//
//   - the SYCL runtime's interpreter executes it, so benchmark outputs
//     are real and verifiable;
//   - the compiler pass (internal/features) statically extracts the
//     Table-1 feature vector from it;
//   - the hardware model derives the ground-truth cost from the same
//     static description, so the learning task of §6 is faithful.
package kernelir

import (
	"fmt"
	"sync/atomic"
)

// ScalarType distinguishes the two value types kernels operate on.
type ScalarType int

const (
	// I32 is a 32-bit signed integer (held in the int register file).
	I32 ScalarType = iota
	// F32 is a 32-bit float (held in the float register file).
	F32
)

// String returns the type name.
func (t ScalarType) String() string {
	if t == I32 {
		return "i32"
	}
	return "f32"
}

// AccessMode is the buffer access mode, as in SYCL accessors.
type AccessMode int

const (
	// Read grants load-only access.
	Read AccessMode = iota
	// Write grants store-only access.
	Write
	// ReadWrite grants both.
	ReadWrite
)

// String returns the access-mode name.
func (m AccessMode) String() string {
	switch m {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return "read_write"
	}
}

// Param declares one kernel parameter: a global buffer or a scalar.
type Param struct {
	Name     string
	IsBuffer bool
	Type     ScalarType
	Access   AccessMode // buffers only
}

// Op enumerates the instruction opcodes.
type Op int

// Opcode groups (the comments give the Table-1 feature class each op is
// counted under by the feature-extraction pass; "free" ops model
// register traffic that costs no issue slot in the model).
const (
	// --- free ---
	OpConstI    Op = iota // Dst <- int(Imm)
	OpConstF              // Dst <- Imm
	OpMoveI               // Dst <- A
	OpMoveF               // Dst <- A
	OpGlobalID            // Dst <- linear work-item id
	OpGlobalIDX           // Dst <- x index of a 2-D launch (column)
	OpGlobalIDY           // Dst <- y index of a 2-D launch (row; 0 in 1-D)
	OpParamI              // Dst <- int scalar param Buf
	OpParamF              // Dst <- float scalar param Buf
	OpCvtIF               // Dst(f) <- float(A(i))
	OpCvtFI               // Dst(i) <- trunc(A(f))

	// --- int_add ---
	OpAddI   // Dst <- A + B
	OpSubI   // Dst <- A - B
	OpMinI   // Dst <- min(A, B)
	OpMaxI   // Dst <- max(A, B)
	OpCmpLTI // Dst <- A < B ? 1 : 0
	OpCmpEQI // Dst <- A == B ? 1 : 0
	OpSelI   // Dst <- C != 0 ? A : B (int)

	// --- int_mul ---
	OpMulI // Dst <- A * B

	// --- int_div ---
	OpDivI // Dst <- A / B (0 on divide-by-zero)
	OpRemI // Dst <- A % B (0 on divide-by-zero)

	// --- int_bw ---
	OpAndI // Dst <- A & B
	OpOrI  // Dst <- A | B
	OpXorI // Dst <- A ^ B
	OpShlI // Dst <- A << (B & 63)
	OpShrI // Dst <- A >> (B & 63)

	// --- float_add ---
	OpAddF   // Dst <- A + B
	OpSubF   // Dst <- A - B
	OpMinF   // Dst <- min(A, B)
	OpMaxF   // Dst <- max(A, B)
	OpAbsF   // Dst <- |A|
	OpNegF   // Dst <- -A
	OpCmpLTF // Dst(i) <- A < B ? 1 : 0
	OpSelF   // Dst <- C(i) != 0 ? A : B (float)

	// --- float_mul ---
	OpMulF // Dst <- A * B

	// --- float_div ---
	OpDivF // Dst <- A / B

	// --- sf (special functions) ---
	OpSqrtF // Dst <- sqrt(A)
	OpExpF  // Dst <- exp(A)
	OpLogF  // Dst <- log(A)
	OpSinF  // Dst <- sin(A)
	OpCosF  // Dst <- cos(A)
	OpPowF  // Dst <- pow(A, B)
	OpErfF  // Dst <- erf(A)

	// --- gl_access ---
	OpLoadGF  // Dst(f) <- bufF[Buf][clamp(A)]
	OpStoreGF // bufF[Buf][clamp(A)] <- B(f)
	OpLoadGI  // Dst(i) <- bufI[Buf][clamp(A)]
	OpStoreGI // bufI[Buf][clamp(A)] <- B(i)

	// --- loc_access ---
	OpLoadLF  // Dst(f) <- local[clamp(A)]
	OpStoreLF // local[clamp(A)] <- B(f)

	// --- control (free) ---
	OpRepeatBegin // repeat Imm times until matching OpRepeatEnd
	OpRepeatEnd

	opCount // sentinel
)

var opNames = [...]string{
	OpConstI: "const.i", OpConstF: "const.f", OpMoveI: "mov.i", OpMoveF: "mov.f",
	OpGlobalID: "gid", OpGlobalIDX: "gid.x", OpGlobalIDY: "gid.y",
	OpParamI: "param.i", OpParamF: "param.f",
	OpCvtIF: "cvt.if", OpCvtFI: "cvt.fi",
	OpAddI: "add.i", OpSubI: "sub.i", OpMinI: "min.i", OpMaxI: "max.i",
	OpCmpLTI: "cmplt.i", OpCmpEQI: "cmpeq.i", OpSelI: "sel.i",
	OpMulI: "mul.i", OpDivI: "div.i", OpRemI: "rem.i",
	OpAndI: "and.i", OpOrI: "or.i", OpXorI: "xor.i", OpShlI: "shl.i", OpShrI: "shr.i",
	OpAddF: "add.f", OpSubF: "sub.f", OpMinF: "min.f", OpMaxF: "max.f",
	OpAbsF: "abs.f", OpNegF: "neg.f", OpCmpLTF: "cmplt.f", OpSelF: "sel.f",
	OpMulF: "mul.f", OpDivF: "div.f",
	OpSqrtF: "sqrt.f", OpExpF: "exp.f", OpLogF: "log.f", OpSinF: "sin.f",
	OpCosF: "cos.f", OpPowF: "pow.f", OpErfF: "erf.f",
	OpLoadGF: "ld.g.f", OpStoreGF: "st.g.f", OpLoadGI: "ld.g.i", OpStoreGI: "st.g.i",
	OpLoadLF: "ld.l.f", OpStoreLF: "st.l.f",
	OpRepeatBegin: "repeat", OpRepeatEnd: "end",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// MaxRepeatTrip bounds static Repeat trip counts. The limit is far above
// anything a real kernel needs (the suite tops out in the hundreds) but
// keeps a single malformed count from turning the interpreter, the
// feature pass or a frequency sweep into an unbounded loop. Assemble,
// Validate and Builder.Repeat all enforce the same bound.
const MaxRepeatTrip = 1 << 20

// MaxRegs bounds each register file. The suite and the micro-benchmarks
// use at most a few hundred registers per file; the bound keeps one
// register named in a .kir body (say f200000000) from sizing a file, and
// every per-register array of the interpreter, the compiler and the
// feature pass, to gigabytes. Assemble, Validate and the Builder all
// enforce it. ExecuteChecked's local-bounds probe adds 7 int registers,
// so it refuses a kernel with local accesses within 7 of the bound.
const MaxRegs = 1 << 16

// MaxDepth bounds Repeat nesting. The suite nests at most 1 deep and the
// default micro-benchmarks not at all. Disassemble indents two spaces
// per level, so without a bound the text Fingerprint hashes grows as
// depth × lines: 20,000 nested repeats in a 260 KB body made it
// allocate 4.9 GB. Assemble, Validate and the Builder all enforce it.
const MaxDepth = 8

// Instr is one instruction of the register machine.
type Instr struct {
	Op      Op
	Dst     int     // destination register
	A, B, C int     // operand registers
	Imm     float64 // immediate (constants, repeat trip count)
	Buf     int     // parameter index for loads/stores/param reads
}

// Kernel is a validated kernel program.
type Kernel struct {
	Name string
	// Params declares buffers and scalars in positional order.
	Params []Param
	// Body is the instruction sequence.
	Body []Instr
	// NumIntRegs and NumFloatRegs size the register files.
	NumIntRegs, NumFloatRegs int
	// LocalF32 is the per-work-item float scratch size (0 for none).
	LocalF32 int
	// TrafficFactor is the fraction of global accesses that reach DRAM
	// (cache/coalescing reuse; 1.0 when unset is treated as no reuse).
	// Stencil and tiled kernels set this well below 1. The static
	// feature extraction deliberately does NOT see it — exactly as the
	// paper's naive instruction counts do not see the real hardware's
	// caches — so it contributes honest modelling error to the ML task.
	TrafficFactor float64

	// fp caches Fingerprint. A Kernel must not be copied by value once
	// built (WithBody derives a new one); go vet's copylocks check
	// enforces it.
	fp atomic.Pointer[fingerprint]
}

// WithBody returns a new kernel with k's name, parameters, register
// files, local size and traffic factor and the given body. It does not
// carry k's cached fingerprint, so callers may change the new kernel
// before they publish it.
func (k *Kernel) WithBody(body []Instr) *Kernel {
	return &Kernel{
		Name: k.Name, Params: k.Params, Body: body,
		NumIntRegs: k.NumIntRegs, NumFloatRegs: k.NumFloatRegs,
		LocalF32: k.LocalF32, TrafficFactor: k.TrafficFactor,
	}
}

// Validate checks structural well-formedness: register bounds, parameter
// references, access modes, repeat nesting and depth, and trip counts.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("kernelir: kernel has no name")
	}
	if !(k.TrafficFactor >= 0 && k.TrafficFactor <= 1) { // NaN included
		return fmt.Errorf("kernelir: %s: traffic factor %v outside [0, 1]", k.Name, k.TrafficFactor)
	}
	if k.NumIntRegs < 0 || k.NumIntRegs > MaxRegs || k.NumFloatRegs < 0 || k.NumFloatRegs > MaxRegs {
		return fmt.Errorf("kernelir: %s: register files of %d int and %d float registers outside [0, %d]",
			k.Name, k.NumIntRegs, k.NumFloatRegs, MaxRegs)
	}
	depth := 0
	for pc, in := range k.Body {
		if !in.Op.Valid() {
			return fmt.Errorf("kernelir: %s: instr %d: unknown opcode %d", k.Name, pc, int(in.Op))
		}
		info := in.Op.Info()
		fail := func(format string, args ...any) error {
			return fmt.Errorf("kernelir: %s: instr %d (%s): %s", k.Name, pc, in.Op, fmt.Sprintf(format, args...))
		}
		checkReg := func(r Reg, role string) error {
			if limit := k.FileSize(r.File); r.N < 0 || r.N >= limit {
				return fail("%s register %d out of range [0,%d) for file %s", role, r.N, limit, r.File)
			}
			return nil
		}
		if w, ok := in.Write(); ok {
			if err := checkReg(w, "dst"); err != nil {
				return err
			}
		}
		rs, n := in.Reads()
		for i, r := range rs[:n] {
			if err := checkReg(r, slotNames[i]); err != nil {
				return err
			}
		}
		if info.UsesBuf {
			if in.Buf < 0 || in.Buf >= len(k.Params) {
				return fail("parameter index %d out of range", in.Buf)
			}
			p := k.Params[in.Buf]
			if info.IsScalarParam {
				if p.IsBuffer {
					return fail("scalar read of buffer parameter %q", p.Name)
				}
				if p.Type != info.BufElem {
					return fail("scalar parameter %q has type %s, op wants %s", p.Name, p.Type, info.BufElem)
				}
			}
			if info.IsMemOp {
				if !p.IsBuffer {
					return fail("memory access to scalar parameter %q", p.Name)
				}
				if p.Type != info.BufElem {
					return fail("buffer %q has element type %s, op wants %s", p.Name, p.Type, info.BufElem)
				}
				isStore := !info.Writes
				if isStore && p.Access == Read {
					return fail("store to read-only buffer %q", p.Name)
				}
				if !isStore && p.Access == Write {
					return fail("load from write-only buffer %q", p.Name)
				}
			}
		}
		if info.IsLocal && k.LocalF32 == 0 {
			return fail("local access but kernel declares no local memory")
		}
		switch in.Op {
		case OpRepeatBegin:
			if in.Imm < 1 || in.Imm != float64(int(in.Imm)) {
				return fail("repeat trip count %v must be a positive integer", in.Imm)
			}
			if in.Imm > MaxRepeatTrip {
				return fail("repeat trip count %v exceeds the maximum %d", in.Imm, MaxRepeatTrip)
			}
			if depth++; depth > MaxDepth {
				return fail("repeat nesting deeper than %d", MaxDepth)
			}
		case OpRepeatEnd:
			depth--
			if depth < 0 {
				return fail("unmatched repeat end")
			}
		}
	}
	if depth != 0 {
		return fmt.Errorf("kernelir: %s: %d unclosed repeat block(s)", k.Name, depth)
	}
	return nil
}

// ParamIndex returns the positional index of the named parameter.
func (k *Kernel) ParamIndex(name string) (int, bool) {
	for i, p := range k.Params {
		if p.Name == name {
			return i, true
		}
	}
	return 0, false
}
