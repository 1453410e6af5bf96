package opt

import (
	"fmt"
	"math"

	"synergy/internal/kernelir"
)

// Available-expressions CSE via register versioning. Each register
// carries a version counter bumped at every write; an expression key
// combines the opcode, immediate bits and each operand register WITH
// the operand's version at key-build time. A recorded expression is
// reusable iff a key built from the current versions matches and the
// holder register still carries the version it had when recorded —
// stale operands or an overwritten holder simply fail the lookup.
//
// Loops: on entering a Repeat block, every register the subtree writes
// gets its version bumped, because iterations beyond the first observe
// the loop-carried value rather than the pre-loop one. Entries created
// inside the body stay valid for later uses in the same iteration
// (identical execution order every iteration), which is exactly what
// the linear walk checks.
//
// Loads are never CSE'd (stores may intervene, including colliding
// stores from other instructions in the same item); moves are never
// CSE'd (a move of a move is churn, not progress). Everything else pure
// — constants, parameter reads, global-id reads, arithmetic,
// conversions, comparisons, selects — participates. Replacing a float
// recomputation with a move of the first result is bit-exact: same
// operand bits through the same deterministic operation.

type exprKey struct {
	op   kernelir.Op
	imm  uint64 // math.Float64bits so NaN immediates compare equal
	regs [3]int // operand registers, in slot order
	vers [3]int // their versions when the key was built
	buf  int
}

type exprHolder struct {
	reg int
	ver int
}

// cseable reports whether in may participate in available-expressions
// numbering.
func cseable(in kernelir.Instr) bool {
	switch in.Op {
	case kernelir.OpMoveI, kernelir.OpMoveF,
		kernelir.OpLoadGF, kernelir.OpLoadGI, kernelir.OpLoadLF:
		return false
	}
	return pureOp(in)
}

// cseables counts body's cseable instructions. No rewrite makes an
// instruction cseable, so no later body has more, and a cse pass's
// table never holds more entries.
func cseables(body []kernelir.Instr) int {
	n := 0
	for _, in := range body {
		if cseable(in) {
			n++
		}
	}
	return n
}

func csePass(s *scratch, body []kernelir.Instr, tree *kernelir.LoopTree, rws []Rewrite) ([]kernelir.Instr, []Rewrite) {
	k, out, vers, avail := s.k, s.next(body), s.vers, s.avail
	clear(vers)
	clear(avail)

	mkKey := func(in kernelir.Instr) exprKey {
		key := exprKey{op: in.Op, imm: math.Float64bits(in.Imm)}
		rs, n := in.Reads()
		for i, r := range rs[:n] {
			key.regs[i], key.vers[i] = r.N, vers[k.RegIndex(r)]
		}
		if in.Op.Info().UsesBuf {
			key.buf = in.Buf
		}
		return key
	}

	// Kill on loop entry: iterations beyond the first observe
	// loop-carried values for everything the block writes.
	walk(tree, out, func(r kernelir.Reg) { vers[k.RegIndex(r)]++ }, func(pc int) {
		in := out[pc]
		w, hasDst := in.Write()
		if !cseable(in) {
			if hasDst {
				vers[k.RegIndex(w)]++
			}
			return
		}
		d := k.RegIndex(w)
		key := mkKey(in)
		if h, ok := avail[key]; ok && vers[k.RegIndex(kernelir.Reg{File: w.File, N: h.reg})] == h.ver && h.reg != w.N {
			mov := kernelir.OpMoveI
			if w.File == kernelir.F32 {
				mov = kernelir.OpMoveF
			}
			out[pc] = kernelir.Instr{Op: mov, Dst: w.N, A: h.reg}
			rws = append(rws, Rewrite{
				Pass: "cse", PC: pc,
				Note: fmt.Sprintf("%s over identical operand versions already available in r%d", in.Op, h.reg),
			})
			vers[d]++
			return
		}
		vers[d]++
		avail[key] = exprHolder{reg: w.N, ver: vers[d]}
	})
	return out, rws
}
