package opt

import (
	"fmt"
	"math"

	"synergy/internal/kernelir"
)

// Constant propagation is a forward walk over the body carrying "this
// register holds a known constant" facts per register. The entry state
// is ⊤ for every register — NOT zero: per-worker register files carry
// over across work items, so a read before the first write observes the
// previous item's value, and only instructions in this body can
// establish constants. Repeat blocks kill every register their subtree
// writes before the body is entered (iteration two may observe the
// loop-carried value), which makes the single linear walk sound for all
// iterations.

// constVal is the per-register lattice: unknown (⊤) or one known value.
type constVal struct {
	known bool
	i     int64
	f     float64
}

// constState holds one lattice value per register, by k's flat
// register index.
type constState struct {
	k    *kernelir.Kernel
	vals []constVal
}

func newConstState(k *kernelir.Kernel) *constState {
	return &constState{k: k, vals: make([]constVal, k.NumRegs())}
}

// of returns r's lattice value.
func (st *constState) of(r kernelir.Reg) constVal { return st.vals[st.k.RegIndex(r)] }

// intOf returns int register reg's value, if known.
func (st *constState) intOf(reg int) (int64, bool) {
	v := st.of(kernelir.Reg{File: kernelir.I32, N: reg})
	return v.i, v.known
}

// transfer updates st with in's effect. It must over-approximate the
// interpreter: a register is marked known only when every execution of
// in (in any launch, any item) produces that exact value.
func (st *constState) transfer(in kernelir.Instr) {
	w, ok := in.Write()
	if !ok {
		return
	}
	v := constVal{}
	switch in.Op {
	case kernelir.OpConstI:
		v = constVal{known: true, i: int64(in.Imm)}
	case kernelir.OpConstF:
		v = constVal{known: true, f: in.Imm}
	case kernelir.OpMoveI, kernelir.OpMoveF:
		v = st.of(kernelir.Reg{File: w.File, N: in.A})
	default:
		if folded, ok := foldValue(in, st); ok {
			v = folded
		}
	}
	st.vals[st.k.RegIndex(w)] = v
}

// walkConst runs visit over every non-control instruction with the
// constant state as of that point, applying loop kills. visit may
// rewrite body[pc] in place; the transfer runs on the (possibly
// rewritten) instruction.
func walkConst(k *kernelir.Kernel, body []kernelir.Instr, visit func(pc int, st *constState)) {
	st := newConstState(k)
	walk(body, func(r kernelir.Reg) { st.vals[k.RegIndex(r)] = constVal{} }, func(pc int) {
		visit(pc, st)
		st.transfer(body[pc])
	})
}

// immRoundTrips reports whether v survives the float64 Instr.Imm
// encoding (OpConstI stores its value as float64 and the disassembler
// prints int64(Imm), so a folded constant must round-trip exactly).
func immRoundTrips(v int64) bool {
	f := float64(v)
	return f >= math.MinInt64 && f < math.MaxInt64 && int64(f) == v
}

// cvtFIFoldable reports whether int64(f) is exact and portable: the Go
// spec leaves out-of-range float→int conversion implementation-defined,
// so NaN, infinities and magnitudes beyond 2^53 are left to runtime.
func cvtFIFoldable(f float64) bool {
	return !math.IsNaN(f) && math.Abs(f) <= 1<<53
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// foldValue evaluates in over known operands, performing exactly the
// operation interp.go's runItem performs (same Go expressions, so float
// rounding, NaN production and shift masking are identical). It refuses
// to fold div/rem with a zero divisor (the interpreter's x/0 = 0 path
// stays in the code), integer results that do not round-trip through
// the Imm encoding, and float→int conversions outside the exact range.
func foldValue(in kernelir.Instr, st *constState) (constVal, bool) {
	// Each operand's int and float fields: an int register's float field
	// is 0 and the other way round, and each op reads only the fields of
	// its operands' files.
	var ints [3]int64
	var floats [3]float64
	rs, n := in.Reads()
	for i, r := range rs[:n] {
		v := st.of(r)
		if !v.known {
			return constVal{}, false
		}
		ints[i], floats[i] = v.i, v.f
	}
	ai, bi, ci := ints[0], ints[1], ints[2]
	af, bf := floats[0], floats[1]

	intVal := func(v int64) (constVal, bool) {
		if !immRoundTrips(v) {
			return constVal{}, false
		}
		return constVal{known: true, i: v}, true
	}
	floatVal := func(v float64) (constVal, bool) {
		return constVal{known: true, f: v}, true
	}

	switch in.Op {
	case kernelir.OpAddI:
		return intVal(ai + bi)
	case kernelir.OpSubI:
		return intVal(ai - bi)
	case kernelir.OpMulI:
		return intVal(ai * bi)
	case kernelir.OpDivI:
		if bi == 0 {
			return constVal{}, false // never folded: x/0 stays in the code
		}
		return intVal(ai / bi)
	case kernelir.OpRemI:
		if bi == 0 {
			return constVal{}, false
		}
		return intVal(ai % bi)
	case kernelir.OpMinI:
		return intVal(min(ai, bi))
	case kernelir.OpMaxI:
		return intVal(max(ai, bi))
	case kernelir.OpCmpLTI:
		return intVal(b2i(ai < bi))
	case kernelir.OpCmpEQI:
		return intVal(b2i(ai == bi))
	case kernelir.OpSelI:
		if ci != 0 {
			return intVal(ai)
		}
		return intVal(bi)
	case kernelir.OpAndI:
		return intVal(ai & bi)
	case kernelir.OpOrI:
		return intVal(ai | bi)
	case kernelir.OpXorI:
		return intVal(ai ^ bi)
	case kernelir.OpShlI:
		return intVal(ai << (uint64(bi) & 63))
	case kernelir.OpShrI:
		return intVal(ai >> (uint64(bi) & 63))
	case kernelir.OpCvtIF:
		return floatVal(float64(ai))
	case kernelir.OpCvtFI:
		if !cvtFIFoldable(af) {
			return constVal{}, false
		}
		return intVal(int64(af))
	case kernelir.OpAddF:
		return floatVal(af + bf)
	case kernelir.OpSubF:
		return floatVal(af - bf)
	case kernelir.OpMulF:
		return floatVal(af * bf)
	case kernelir.OpDivF:
		if bf == 0 {
			return constVal{}, false // never folded, ±0.0 included
		}
		return floatVal(af / bf)
	case kernelir.OpMinF:
		return floatVal(math.Min(af, bf))
	case kernelir.OpMaxF:
		return floatVal(math.Max(af, bf))
	case kernelir.OpAbsF:
		return floatVal(math.Abs(af))
	case kernelir.OpNegF:
		return floatVal(-af)
	case kernelir.OpCmpLTF:
		return intVal(b2i(af < bf))
	case kernelir.OpSelF:
		if ci != 0 {
			return floatVal(af)
		}
		return floatVal(bf)
	case kernelir.OpSqrtF:
		return floatVal(math.Sqrt(af))
	case kernelir.OpExpF:
		return floatVal(math.Exp(af))
	case kernelir.OpLogF:
		return floatVal(math.Log(af))
	case kernelir.OpSinF:
		return floatVal(math.Sin(af))
	case kernelir.OpCosF:
		return floatVal(math.Cos(af))
	case kernelir.OpPowF:
		return floatVal(math.Pow(af, bf))
	case kernelir.OpErfF:
		return floatVal(math.Erf(af))
	}
	// param.i/f, gid variants, loads: launch- or item-dependent.
	return constVal{}, false
}

// foldPass replaces every instruction whose operands are known
// constants with the materialized constant (or, for selects with a
// known condition, with a move of the chosen operand). Instruction
// count is unchanged; downstream passes clean up the orphaned
// producers.
func foldPass(k *kernelir.Kernel, body []kernelir.Instr) ([]kernelir.Instr, []Rewrite) {
	out := append([]kernelir.Instr(nil), body...)
	var rws []Rewrite
	walkConst(k, out, func(pc int, st *constState) {
		in := out[pc]
		switch in.Op {
		case kernelir.OpConstI, kernelir.OpConstF, kernelir.OpMoveI, kernelir.OpMoveF:
			return // already free-form; CSE/DCE handle duplicates
		}
		// A select with a known condition becomes a move even when the
		// chosen operand is not constant.
		if in.Op == kernelir.OpSelI || in.Op == kernelir.OpSelF {
			if cond, ok := st.intOf(in.C); ok {
				src := in.A
				if cond == 0 {
					src = in.B
				}
				mov := kernelir.OpMoveI
				if in.Op == kernelir.OpSelF {
					mov = kernelir.OpMoveF
				}
				out[pc] = kernelir.Instr{Op: mov, Dst: in.Dst, A: src}
				rws = append(rws, Rewrite{
					Pass: "constfold", PC: pc,
					Note: fmt.Sprintf("select condition i%d is the constant %d", in.C, cond),
				})
				return
			}
		}
		if !pureOp(in) {
			return
		}
		v, ok := foldValue(in, st)
		if !ok {
			return
		}
		if w, _ := in.Write(); w.File == kernelir.I32 {
			out[pc] = kernelir.Instr{Op: kernelir.OpConstI, Dst: in.Dst, Imm: float64(v.i)}
			rws = append(rws, Rewrite{
				Pass: "constfold", PC: pc,
				Note: fmt.Sprintf("all operands constant; %s folds to %d", in.Op, v.i),
			})
		} else {
			out[pc] = kernelir.Instr{Op: kernelir.OpConstF, Dst: in.Dst, Imm: v.f}
			rws = append(rws, Rewrite{
				Pass: "constfold", PC: pc,
				Note: fmt.Sprintf("all operands constant; %s folds to %g", in.Op, v.f),
			})
		}
	})
	if len(rws) == 0 {
		return nil, nil
	}
	return out, rws
}
