package opt

import (
	"fmt"
	"math"

	"synergy/internal/kernelir"
)

// Loop-invariant code motion over BuildLoopTree. An instruction may
// move out of its Repeat block when:
//
//   - it is pure (no memory, local or control effect);
//   - its destination is written exactly once in the loop subtree (by
//     the candidate itself) and never read in the subtree before that
//     write — iteration one must not observe a pre-loop value, and no
//     instruction may observe the loop-carried value;
//   - none of its operand registers is written anywhere in the subtree
//     (the candidate's inputs are identical in every iteration);
//   - for div/rem, the divisor is additionally a provably nonzero
//     constant — a (possibly) zero divisor is never hoisted, keeping
//     the interpreter's x/0 = 0 evaluation exactly where it was.
//
// Validate guarantees trip counts are at least 1, so executing the
// candidate once before the block is execute-exactly-what-would-have-
// executed, with identical operand values — bit-exact including floats.
//
// Hoisting proceeds innermost-first and reruns to fixpoint, so chains
// of invariant instructions cascade out of nested loops (the const
// feeding a mul feeding an add all reach the outermost prologue).
func licmPass(k *kernelir.Kernel, body []kernelir.Instr) ([]kernelir.Instr, []Rewrite) {
	out := append([]kernelir.Instr(nil), body...)
	var rws []Rewrite
	s := newLoopUse(k)
	for licmRound(s, out, &rws) {
	}
	if len(rws) == 0 {
		return nil, nil
	}
	return out, rws
}

// licmRound hoists one batch out of the first (innermost) loop that has
// eligible instructions, rewriting out in place. Returns whether
// anything moved.
func licmRound(s *loopUse, out []kernelir.Instr, rws *[]Rewrite) bool {
	tree, err := kernelir.BuildLoopTree(out)
	if err != nil {
		return false
	}
	// Innermost first: a post-order walk visits children before their
	// loop, siblings in body order.
	var loops []*kernelir.LoopNode
	var collect func(n *kernelir.LoopNode)
	collect = func(n *kernelir.LoopNode) {
		for _, c := range n.Children {
			collect(c)
			loops = append(loops, c)
		}
	}
	collect(tree.Root)

	for _, l := range loops {
		picks := hoistable(s, out, l.Begin, l.End)
		if len(picks) == 0 {
			continue
		}
		// Rebuild: hoisted instructions, in original order, immediately
		// before the RepeatBegin; the rest of the subtree keeps its order.
		nb := make([]kernelir.Instr, 0, len(out))
		nb = append(nb, out[:l.Begin]...)
		for _, pc := range picks {
			nb = append(nb, out[pc])
			*rws = append(*rws, Rewrite{
				Pass: "licm", PC: pc,
				Note: fmt.Sprintf("%s is invariant in the repeat at pc %d (operands unwritten in loop, single write, no prior read)", out[pc].Op, l.Begin),
			})
		}
		next := 0
		for pc := l.Begin; pc < len(out); pc++ {
			if next < len(picks) && picks[next] == pc {
				next++
				continue
			}
			nb = append(nb, out[pc])
		}
		copy(out, nb)
		return true
	}
	return false
}

// loopUse holds, for the loop hoistable is looking at, each register's
// write count and the pc of its first read, by flat register index.
// One is allocated per pass and cleared after each loop, so a kernel of
// many small loops pays for what its loops touch, not for its register
// files.
type loopUse struct {
	k         *kernelir.Kernel
	writes    []int
	firstRead []int // math.MaxInt when unread
}

func newLoopUse(k *kernelir.Kernel) *loopUse {
	s := &loopUse{k: k, writes: make([]int, k.NumRegs()), firstRead: make([]int, k.NumRegs())}
	for i := range s.firstRead {
		s.firstRead[i] = math.MaxInt
	}
	return s
}

// hoistable returns the pcs (ascending) of instructions eligible to
// move out of the loop whose body spans (begin, end). One scan counts
// the body's writes and first reads; each candidate is then tested
// against those counts.
func hoistable(s *loopUse, out []kernelir.Instr, begin, end int) []int {
	body := out[begin+1 : end]
	for q, in := range body {
		rs, n := in.Reads()
		for _, r := range rs[:n] {
			i := s.k.RegIndex(r)
			s.firstRead[i] = min(s.firstRead[i], begin+1+q)
		}
		if w, ok := in.Write(); ok {
			s.writes[s.k.RegIndex(w)]++
		}
	}
	var picks []int
	for q, in := range body {
		pc := begin + 1 + q
		if !pureOp(in) {
			continue
		}
		// Destination written exactly once in the subtree, by this
		// instruction, and never read in the subtree at or before that
		// write: a read at pc itself (dst as its own operand) observes
		// the loop-carried value and blocks the move.
		w, _ := in.Write()
		if d := s.k.RegIndex(w); s.writes[d] != 1 || s.firstRead[d] <= pc {
			continue
		}
		// Operands invariant: no writes to them anywhere in the subtree.
		invariant := true
		rs, n := in.Reads()
		for _, r := range rs[:n] {
			invariant = invariant && s.writes[s.k.RegIndex(r)] == 0
		}
		if invariant && !divisorMayBeZero(out, in) {
			picks = append(picks, pc)
		}
	}
	for _, in := range body {
		rs, n := in.Reads()
		for _, r := range rs[:n] {
			s.firstRead[s.k.RegIndex(r)] = math.MaxInt
		}
		if w, ok := in.Write(); ok {
			s.writes[s.k.RegIndex(w)] = 0
		}
	}
	return picks
}
