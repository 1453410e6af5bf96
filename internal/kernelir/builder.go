package kernelir

import "fmt"

// IntReg and FloatReg are typed handles into the two register files; the
// builder hands them out so that kernels are type-checked as they are
// written, not only at Validate time.
type IntReg struct{ idx int }

// FloatReg is a handle to a float register.
type FloatReg struct{ idx int }

// BufF32 and BufI32 are typed handles to buffer parameters.
type BufF32 struct{ idx int }

// BufI32 is a handle to an int32 buffer parameter.
type BufI32 struct{ idx int }

// Builder constructs kernels with a fluent, type-safe API. Register
// allocation is automatic; Repeat blocks nest via closures.
type Builder struct {
	k       Kernel
	nextI   int
	nextF   int
	built   bool
	repeats int
}

// NewBuilder starts a kernel named name.
func NewBuilder(name string) *Builder {
	return &Builder{k: Kernel{Name: name}}
}

func (b *Builder) emit(in Instr) {
	if b.built {
		panic("kernelir: builder reused after Build")
	}
	b.k.Body = append(b.k.Body, in)
}

// alloc hands out the next register of a file; like Repeat past
// MaxRepeatTrip, a kernel past MaxRegs is a programming error.
func alloc(next *int, file ScalarType) int {
	if *next == MaxRegs {
		panic(fmt.Sprintf("kernelir: more than %d %s registers", MaxRegs, file))
	}
	*next++
	return *next - 1
}

func (b *Builder) allocI() IntReg { return IntReg{alloc(&b.nextI, I32)} }

func (b *Builder) allocF() FloatReg { return FloatReg{alloc(&b.nextF, F32)} }

// BufferF32 declares a float32 global buffer parameter.
func (b *Builder) BufferF32(name string, access AccessMode) BufF32 {
	b.k.Params = append(b.k.Params, Param{Name: name, IsBuffer: true, Type: F32, Access: access})
	return BufF32{len(b.k.Params) - 1}
}

// BufferI32 declares an int32 global buffer parameter.
func (b *Builder) BufferI32(name string, access AccessMode) BufI32 {
	b.k.Params = append(b.k.Params, Param{Name: name, IsBuffer: true, Type: I32, Access: access})
	return BufI32{len(b.k.Params) - 1}
}

// ScalarI declares an integer scalar parameter and returns a register
// holding its value.
func (b *Builder) ScalarI(name string) IntReg {
	b.k.Params = append(b.k.Params, Param{Name: name, Type: I32})
	dst := b.allocI()
	b.emit(Instr{Op: OpParamI, Dst: dst.idx, Buf: len(b.k.Params) - 1})
	return dst
}

// ScalarF declares a float scalar parameter and returns a register
// holding its value.
func (b *Builder) ScalarF(name string) FloatReg {
	b.k.Params = append(b.k.Params, Param{Name: name, Type: F32})
	dst := b.allocF()
	b.emit(Instr{Op: OpParamF, Dst: dst.idx, Buf: len(b.k.Params) - 1})
	return dst
}

// TrafficFactor declares the fraction of this kernel's global accesses
// that reach DRAM (cache/coalescing reuse). Must be in (0, 1].
func (b *Builder) TrafficFactor(f float64) {
	if f <= 0 || f > 1 {
		panic("kernelir: traffic factor must be in (0, 1]")
	}
	b.k.TrafficFactor = f
}

// Local declares n float32 words of per-work-item scratch memory.
func (b *Builder) Local(n int) {
	if n <= 0 {
		panic("kernelir: local size must be positive")
	}
	b.k.LocalF32 = n
}

// GlobalID returns the linear work-item index.
func (b *Builder) GlobalID() IntReg {
	dst := b.allocI()
	b.emit(Instr{Op: OpGlobalID, Dst: dst.idx})
	return dst
}

// GlobalID2 returns the (x, y) indices of a 2-D launch. For 1-D
// launches x equals the linear id and y is zero.
func (b *Builder) GlobalID2() (x, y IntReg) {
	x = b.allocI()
	b.emit(Instr{Op: OpGlobalIDX, Dst: x.idx})
	y = b.allocI()
	b.emit(Instr{Op: OpGlobalIDY, Dst: y.idx})
	return x, y
}

// ConstI materialises an integer constant.
func (b *Builder) ConstI(v int64) IntReg {
	dst := b.allocI()
	b.emit(Instr{Op: OpConstI, Dst: dst.idx, Imm: float64(v)})
	return dst
}

// ConstF materialises a float constant.
func (b *Builder) ConstF(v float64) FloatReg {
	dst := b.allocF()
	b.emit(Instr{Op: OpConstF, Dst: dst.idx, Imm: v})
	return dst
}

// MoveI copies src into dst (loop write-back; costs no feature).
func (b *Builder) MoveI(dst, src IntReg) { b.emit(Instr{Op: OpMoveI, Dst: dst.idx, A: src.idx}) }

// CopyI copies src into a fresh register (useful to obtain a mutable
// loop variable initialised from a read-only value).
func (b *Builder) CopyI(src IntReg) IntReg {
	dst := b.allocI()
	b.emit(Instr{Op: OpMoveI, Dst: dst.idx, A: src.idx})
	return dst
}

// CopyF copies src into a fresh float register.
func (b *Builder) CopyF(src FloatReg) FloatReg {
	dst := b.allocF()
	b.emit(Instr{Op: OpMoveF, Dst: dst.idx, A: src.idx})
	return dst
}

// MoveF copies src into dst (loop write-back; costs no feature).
func (b *Builder) MoveF(dst, src FloatReg) { b.emit(Instr{Op: OpMoveF, Dst: dst.idx, A: src.idx}) }

func (b *Builder) binI(op Op, x, y IntReg) IntReg {
	dst := b.allocI()
	b.emit(Instr{Op: op, Dst: dst.idx, A: x.idx, B: y.idx})
	return dst
}

func (b *Builder) binF(op Op, x, y FloatReg) FloatReg {
	dst := b.allocF()
	b.emit(Instr{Op: op, Dst: dst.idx, A: x.idx, B: y.idx})
	return dst
}

func (b *Builder) unF(op Op, x FloatReg) FloatReg {
	dst := b.allocF()
	b.emit(Instr{Op: op, Dst: dst.idx, A: x.idx})
	return dst
}

// Integer arithmetic.

// AddI returns x + y.
func (b *Builder) AddI(x, y IntReg) IntReg { return b.binI(OpAddI, x, y) }

// SubI returns x - y.
func (b *Builder) SubI(x, y IntReg) IntReg { return b.binI(OpSubI, x, y) }

// MulI returns x * y.
func (b *Builder) MulI(x, y IntReg) IntReg { return b.binI(OpMulI, x, y) }

// DivI returns x / y (0 when y == 0).
func (b *Builder) DivI(x, y IntReg) IntReg { return b.binI(OpDivI, x, y) }

// RemI returns x % y (0 when y == 0).
func (b *Builder) RemI(x, y IntReg) IntReg { return b.binI(OpRemI, x, y) }

// MinI returns min(x, y).
func (b *Builder) MinI(x, y IntReg) IntReg { return b.binI(OpMinI, x, y) }

// MaxI returns max(x, y).
func (b *Builder) MaxI(x, y IntReg) IntReg { return b.binI(OpMaxI, x, y) }

// AndI returns x & y.
func (b *Builder) AndI(x, y IntReg) IntReg { return b.binI(OpAndI, x, y) }

// OrI returns x | y.
func (b *Builder) OrI(x, y IntReg) IntReg { return b.binI(OpOrI, x, y) }

// XorI returns x ^ y.
func (b *Builder) XorI(x, y IntReg) IntReg { return b.binI(OpXorI, x, y) }

// ShlI returns x << (y & 63).
func (b *Builder) ShlI(x, y IntReg) IntReg { return b.binI(OpShlI, x, y) }

// ShrI returns x >> (y & 63).
func (b *Builder) ShrI(x, y IntReg) IntReg { return b.binI(OpShrI, x, y) }

// CmpLTI returns x < y ? 1 : 0.
func (b *Builder) CmpLTI(x, y IntReg) IntReg { return b.binI(OpCmpLTI, x, y) }

// CmpEQI returns x == y ? 1 : 0.
func (b *Builder) CmpEQI(x, y IntReg) IntReg { return b.binI(OpCmpEQI, x, y) }

// SelI returns cond != 0 ? x : y.
func (b *Builder) SelI(cond, x, y IntReg) IntReg {
	dst := b.allocI()
	b.emit(Instr{Op: OpSelI, Dst: dst.idx, A: x.idx, B: y.idx, C: cond.idx})
	return dst
}

// Float arithmetic.

// AddF returns x + y.
func (b *Builder) AddF(x, y FloatReg) FloatReg { return b.binF(OpAddF, x, y) }

// SubF returns x - y.
func (b *Builder) SubF(x, y FloatReg) FloatReg { return b.binF(OpSubF, x, y) }

// MulF returns x * y.
func (b *Builder) MulF(x, y FloatReg) FloatReg { return b.binF(OpMulF, x, y) }

// DivF returns x / y.
func (b *Builder) DivF(x, y FloatReg) FloatReg { return b.binF(OpDivF, x, y) }

// MinF returns min(x, y).
func (b *Builder) MinF(x, y FloatReg) FloatReg { return b.binF(OpMinF, x, y) }

// MaxF returns max(x, y).
func (b *Builder) MaxF(x, y FloatReg) FloatReg { return b.binF(OpMaxF, x, y) }

// AbsF returns |x|.
func (b *Builder) AbsF(x FloatReg) FloatReg { return b.unF(OpAbsF, x) }

// NegF returns -x.
func (b *Builder) NegF(x FloatReg) FloatReg { return b.unF(OpNegF, x) }

// CmpLTF returns x < y ? 1 : 0 (in an int register).
func (b *Builder) CmpLTF(x, y FloatReg) IntReg {
	dst := b.allocI()
	b.emit(Instr{Op: OpCmpLTF, Dst: dst.idx, A: x.idx, B: y.idx})
	return dst
}

// SelF returns cond != 0 ? x : y.
func (b *Builder) SelF(cond IntReg, x, y FloatReg) FloatReg {
	dst := b.allocF()
	b.emit(Instr{Op: OpSelF, Dst: dst.idx, A: x.idx, B: y.idx, C: cond.idx})
	return dst
}

// Special functions.

// SqrtF returns sqrt(x).
func (b *Builder) SqrtF(x FloatReg) FloatReg { return b.unF(OpSqrtF, x) }

// ExpF returns exp(x).
func (b *Builder) ExpF(x FloatReg) FloatReg { return b.unF(OpExpF, x) }

// LogF returns log(x).
func (b *Builder) LogF(x FloatReg) FloatReg { return b.unF(OpLogF, x) }

// SinF returns sin(x).
func (b *Builder) SinF(x FloatReg) FloatReg { return b.unF(OpSinF, x) }

// CosF returns cos(x).
func (b *Builder) CosF(x FloatReg) FloatReg { return b.unF(OpCosF, x) }

// ErfF returns erf(x).
func (b *Builder) ErfF(x FloatReg) FloatReg { return b.unF(OpErfF, x) }

// PowF returns pow(x, y).
func (b *Builder) PowF(x, y FloatReg) FloatReg { return b.binF(OpPowF, x, y) }

// Conversions.

// IntToFloat converts x to float.
func (b *Builder) IntToFloat(x IntReg) FloatReg {
	dst := b.allocF()
	b.emit(Instr{Op: OpCvtIF, Dst: dst.idx, A: x.idx})
	return dst
}

// FloatToInt truncates x to int.
func (b *Builder) FloatToInt(x FloatReg) IntReg {
	dst := b.allocI()
	b.emit(Instr{Op: OpCvtFI, Dst: dst.idx, A: x.idx})
	return dst
}

// Memory.

// LoadF loads buf[idx] (index clamped to the buffer bounds).
func (b *Builder) LoadF(buf BufF32, idx IntReg) FloatReg {
	dst := b.allocF()
	b.emit(Instr{Op: OpLoadGF, Dst: dst.idx, A: idx.idx, Buf: buf.idx})
	return dst
}

// StoreF stores v to buf[idx] (index clamped).
func (b *Builder) StoreF(buf BufF32, idx IntReg, v FloatReg) {
	b.emit(Instr{Op: OpStoreGF, A: idx.idx, B: v.idx, Buf: buf.idx})
}

// LoadI loads buf[idx] (index clamped).
func (b *Builder) LoadI(buf BufI32, idx IntReg) IntReg {
	dst := b.allocI()
	b.emit(Instr{Op: OpLoadGI, Dst: dst.idx, A: idx.idx, Buf: buf.idx})
	return dst
}

// StoreI stores v to buf[idx] (index clamped).
func (b *Builder) StoreI(buf BufI32, idx IntReg, v IntReg) {
	b.emit(Instr{Op: OpStoreGI, A: idx.idx, B: v.idx, Buf: buf.idx})
}

// LoadLocal loads local[idx] (index clamped to the scratch size).
func (b *Builder) LoadLocal(idx IntReg) FloatReg {
	dst := b.allocF()
	b.emit(Instr{Op: OpLoadLF, Dst: dst.idx, A: idx.idx})
	return dst
}

// StoreLocal stores v to local[idx] (index clamped).
func (b *Builder) StoreLocal(idx IntReg, v FloatReg) {
	b.emit(Instr{Op: OpStoreLF, A: idx.idx, B: v.idx})
}

// Repeat executes body count times. The trip count must be statically
// known — the property that makes feature extraction exact — and
// Repeat blocks nest at most MaxDepth deep.
func (b *Builder) Repeat(count int, body func()) {
	if count < 1 || count > MaxRepeatTrip {
		panic(fmt.Sprintf("kernelir: repeat count %d outside [1, %d]", count, MaxRepeatTrip))
	}
	if b.repeats == MaxDepth {
		panic(fmt.Sprintf("kernelir: repeat nesting deeper than %d", MaxDepth))
	}
	b.emit(Instr{Op: OpRepeatBegin, Imm: float64(count)})
	b.repeats++
	body()
	b.repeats--
	b.emit(Instr{Op: OpRepeatEnd})
}

// Build finalises and validates the kernel.
func (b *Builder) Build() (*Kernel, error) {
	if b.built {
		return nil, fmt.Errorf("kernelir: builder reused after Build")
	}
	b.built = true
	k := b.k.WithBody(b.k.Body)
	k.NumIntRegs = b.nextI
	k.NumFloatRegs = b.nextF
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return k, nil
}

// MustBuild is Build that panics on error; kernels are static program
// data, so construction failures are programming errors.
func (b *Builder) MustBuild() *Kernel {
	k, err := b.Build()
	if err != nil {
		panic(err)
	}
	return k
}
