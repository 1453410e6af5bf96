package opt

import (
	"fmt"
	"math/bits"

	"synergy/internal/kernelir"
)

// algebraPass applies exact algebraic identities and strength
// reduction. Integer identities are exact by definition (two's
// complement); on the float side only structural rewrites are applied —
// selects and min/max with two identical operands, which copy one input
// unchanged — never arithmetic identities like x+0.0 or x*1.0, whose
// results can differ bit-for-bit from a move (-0.0, NaN payloads).
//
// Strength reduction rewrites x * 2^k into x << k when the power-of-two
// constant register is defined once and consumed only by that multiply,
// so its defining OpConstI can be retargeted to hold k. The pass counts
// each register's writes and reads once, at the first multiply it
// examines, and keeps the counts current at every rewrite after, so a
// candidate costs no scan of the body.
// Features-wise this moves the instruction from the IntMul class to
// IntBw — the same merged IntOps resource in the hardware model, but
// the sharper class the SYnergy feature vector wants.
func algebraPass(s *scratch, body []kernelir.Instr, tree *kernelir.LoopTree, rws []Rewrite) ([]kernelir.Instr, []Rewrite) {
	out := s.next(body)
	var u *regUse // counts out from the first strength-reduction candidate on

	rewrite := func(pc int, in kernelir.Instr, note string) {
		if u != nil {
			u.set(pc, in)
		} else {
			out[pc] = in
		}
		rws = append(rws, Rewrite{Pass: "algebra", PC: pc, Note: note})
	}
	moveI := func(dst, src int) kernelir.Instr {
		return kernelir.Instr{Op: kernelir.OpMoveI, Dst: dst, A: src}
	}
	moveF := func(dst, src int) kernelir.Instr {
		return kernelir.Instr{Op: kernelir.OpMoveF, Dst: dst, A: src}
	}
	constI := func(dst int, v int64) kernelir.Instr {
		return kernelir.Instr{Op: kernelir.OpConstI, Dst: dst, Imm: float64(v)}
	}

	walkConst(s, tree, out, func(pc int, st *constState) {
		in := out[pc]
		rs, n := in.Reads()
		intConst := func(slot int) (int64, bool) {
			if slot >= n || rs[slot].File != kernelir.I32 {
				return 0, false
			}
			v := st.of(rs[slot])
			return v.i, v.known
		}
		aConst, aKnown := intConst(0)
		bConst, bKnown := intConst(1)

		switch in.Op {
		case kernelir.OpAddI:
			switch {
			case bKnown && bConst == 0:
				rewrite(pc, moveI(in.Dst, in.A), fmt.Sprintf("i%d + 0 = i%d", in.A, in.A))
			case aKnown && aConst == 0:
				rewrite(pc, moveI(in.Dst, in.B), fmt.Sprintf("0 + i%d = i%d", in.B, in.B))
			}
		case kernelir.OpSubI:
			switch {
			case in.A == in.B:
				rewrite(pc, constI(in.Dst, 0), fmt.Sprintf("i%d - i%d = 0", in.A, in.B))
			case bKnown && bConst == 0:
				rewrite(pc, moveI(in.Dst, in.A), fmt.Sprintf("i%d - 0 = i%d", in.A, in.A))
			}
		case kernelir.OpMulI:
			switch {
			case (aKnown && aConst == 0) || (bKnown && bConst == 0):
				rewrite(pc, constI(in.Dst, 0), "multiply by 0")
			case bKnown && bConst == 1:
				rewrite(pc, moveI(in.Dst, in.A), fmt.Sprintf("i%d * 1 = i%d", in.A, in.A))
			case aKnown && aConst == 1:
				rewrite(pc, moveI(in.Dst, in.B), fmt.Sprintf("1 * i%d = i%d", in.B, in.B))
			default:
				if u == nil {
					u = s.use.count(out)
				}
				strengthReduce(u, pc, st, &rws)
			}
		case kernelir.OpDivI:
			if bKnown && bConst == 1 {
				rewrite(pc, moveI(in.Dst, in.A), fmt.Sprintf("i%d / 1 = i%d", in.A, in.A))
			}
		case kernelir.OpRemI:
			if bKnown && bConst == 1 {
				rewrite(pc, constI(in.Dst, 0), fmt.Sprintf("i%d %% 1 = 0", in.A))
			}
		case kernelir.OpAndI:
			switch {
			case in.A == in.B:
				rewrite(pc, moveI(in.Dst, in.A), fmt.Sprintf("i%d & i%d = i%d", in.A, in.B, in.A))
			case (aKnown && aConst == 0) || (bKnown && bConst == 0):
				rewrite(pc, constI(in.Dst, 0), "and with 0")
			case bKnown && bConst == -1:
				rewrite(pc, moveI(in.Dst, in.A), fmt.Sprintf("i%d & -1 = i%d", in.A, in.A))
			case aKnown && aConst == -1:
				rewrite(pc, moveI(in.Dst, in.B), fmt.Sprintf("-1 & i%d = i%d", in.B, in.B))
			}
		case kernelir.OpOrI:
			switch {
			case in.A == in.B:
				rewrite(pc, moveI(in.Dst, in.A), fmt.Sprintf("i%d | i%d = i%d", in.A, in.B, in.A))
			case bKnown && bConst == 0:
				rewrite(pc, moveI(in.Dst, in.A), fmt.Sprintf("i%d | 0 = i%d", in.A, in.A))
			case aKnown && aConst == 0:
				rewrite(pc, moveI(in.Dst, in.B), fmt.Sprintf("0 | i%d = i%d", in.B, in.B))
			case (aKnown && aConst == -1) || (bKnown && bConst == -1):
				rewrite(pc, constI(in.Dst, -1), "or with -1")
			}
		case kernelir.OpXorI:
			switch {
			case in.A == in.B:
				rewrite(pc, constI(in.Dst, 0), fmt.Sprintf("i%d ^ i%d = 0", in.A, in.B))
			case bKnown && bConst == 0:
				rewrite(pc, moveI(in.Dst, in.A), fmt.Sprintf("i%d ^ 0 = i%d", in.A, in.A))
			case aKnown && aConst == 0:
				rewrite(pc, moveI(in.Dst, in.B), fmt.Sprintf("0 ^ i%d = i%d", in.B, in.B))
			}
		case kernelir.OpShlI, kernelir.OpShrI:
			switch {
			case bKnown && uint64(bConst)&63 == 0:
				rewrite(pc, moveI(in.Dst, in.A), "shift amount masks to 0")
			case aKnown && aConst == 0:
				rewrite(pc, constI(in.Dst, 0), "shift of 0")
			}
		case kernelir.OpMinI, kernelir.OpMaxI:
			if in.A == in.B {
				rewrite(pc, moveI(in.Dst, in.A), fmt.Sprintf("both operands are i%d", in.A))
			}
		case kernelir.OpSelI:
			if in.A == in.B {
				rewrite(pc, moveI(in.Dst, in.A), fmt.Sprintf("both branches are i%d", in.A))
			}
		case kernelir.OpSelF:
			if in.A == in.B {
				rewrite(pc, moveF(in.Dst, in.A), fmt.Sprintf("both branches are f%d", in.A))
			}
		case kernelir.OpMinF, kernelir.OpMaxF:
			// min(x, x) and max(x, x) return an argument unchanged (both
			// arguments carry identical bits), so a move is bit-exact even
			// for NaN and signed zero.
			if in.A == in.B {
				rewrite(pc, moveF(in.Dst, in.A), fmt.Sprintf("both operands are f%d", in.A))
			}
		}
	})
	return out, rws
}

// strengthReduce rewrites the OpMulI at pc into a shift when one
// operand register is a single-def single-use power-of-two OpConstI:
// the constant's defining instruction is retargeted to hold the shift
// count and the multiply becomes OpShlI. Both conditions are required —
// the constant register changes value, so no other instruction may
// observe it.
func strengthReduce(u *regUse, pc int, st *constState, rws *[]Rewrite) {
	in := u.body[pc]
	if in.A == in.B {
		return // x*x with x constant is handled by folding, not here
	}
	try := func(constReg, otherReg int) bool {
		r := kernelir.Reg{File: kernelir.I32, N: constReg}
		imm, defPC, ok := u.constDef(r)
		// The unique definition must execute before the multiply; in
		// structured straight-line code that is textual order.
		if !ok || defPC >= pc || u.body[defPC].Op != kernelir.OpConstI {
			return false
		}
		v := int64(imm)
		if v < 2 || v&(v-1) != 0 {
			return false
		}
		if u.reads[u.k.RegIndex(r)] != 1 {
			return false
		}
		shift := int64(bits.TrailingZeros64(uint64(v)))
		u.set(defPC, kernelir.Instr{Op: kernelir.OpConstI, Dst: constReg, Imm: float64(shift)})
		u.set(pc, kernelir.Instr{Op: kernelir.OpShlI, Dst: in.Dst, A: otherReg, B: constReg})
		// The const register's value changed under the walker's feet;
		// refresh the propagation state so later rewrites in this same
		// walk see the shift count, not the stale multiplier.
		st.vals[st.k.RegIndex(r)] = constVal{known: true, i: shift}
		*rws = append(*rws,
			Rewrite{Pass: "algebra", PC: defPC, Note: fmt.Sprintf("strength reduction: const %d becomes shift count %d", v, shift)},
			Rewrite{Pass: "algebra", PC: pc, Note: fmt.Sprintf("i%d * %d = i%d << %d", otherReg, v, otherReg, shift)},
		)
		return true
	}
	if try(in.B, in.A) {
		return
	}
	try(in.A, in.B)
}
