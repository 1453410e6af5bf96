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
// The pass builds the loop tree once and drains the loops in
// post-order, children before their loop and siblings in body order:
// it hoists batch after batch out of one loop until nothing in it
// qualifies, then moves on. Of the loops still to drain, a batch moves
// only its own loop's begin (down, past the batch), and it adds nothing
// to a loop drained before, so the drain hoists the batches that
// restarting from the innermost loop after each batch would. Chains of
// invariant instructions cascade out of nested loops (the const feeding
// a mul feeding an add all reach the outermost prologue). LICM moves
// instructions but never rewrites one, so the divisor facts of the
// pass's input hold throughout.
func licmPass(k *kernelir.Kernel, body []kernelir.Instr) ([]kernelir.Instr, []Rewrite) {
	tree, err := kernelir.BuildLoopTree(body)
	if err != nil {
		return nil, nil
	}
	out := append([]kernelir.Instr(nil), body...)
	s := newLoopUse(k, body)
	var rws []Rewrite
	var drain func(n *kernelir.LoopNode)
	drain = func(n *kernelir.LoopNode) {
		for _, l := range n.Children {
			drain(l)
			for {
				picks := hoistable(s, out, l.Begin, l.End)
				if len(picks) == 0 {
					break
				}
				rws = hoist(out, l.Begin, picks, rws)
				l.Begin += len(picks)
			}
		}
	}
	drain(tree.Root)
	if len(rws) == 0 {
		return nil, nil
	}
	return out, rws
}

// hoist moves the picked instructions (ascending pcs inside the loop
// whose RepeatBegin is at begin) to just before that begin, in their
// order, and logs each move; the rest of the span keeps its order.
func hoist(out []kernelir.Instr, begin int, picks []int, rws []Rewrite) []Rewrite {
	last := picks[len(picks)-1]
	span := make([]kernelir.Instr, 0, last+1-begin)
	for _, pc := range picks {
		span = append(span, out[pc])
		rws = append(rws, Rewrite{
			Pass: "licm", PC: pc,
			Note: fmt.Sprintf("%s is invariant in the repeat at pc %d (operands unwritten in loop, single write, no prior read)", out[pc].Op, begin),
		})
	}
	next := 0
	for pc := begin; pc <= last; pc++ {
		if next < len(picks) && picks[next] == pc {
			next++
			continue
		}
		span = append(span, out[pc])
	}
	copy(out[begin:], span)
	return rws
}

// loopUse holds, for the loop hoistable is looking at, each register's
// write count and the pc of its first read, by flat register index.
// One is allocated per pass and cleared after each loop, so a kernel of
// many small loops pays for what its loops touch, not for its register
// files. body is the pass's input, and defs counts it for the divisor
// test, once, when the first invariant div/rem asks.
type loopUse struct {
	k         *kernelir.Kernel
	writes    []int
	firstRead []int // math.MaxInt when unread
	body      []kernelir.Instr
	defs      *regUse
}

func newLoopUse(k *kernelir.Kernel, body []kernelir.Instr) *loopUse {
	s := &loopUse{k: k, writes: make([]int, k.NumRegs()), firstRead: make([]int, k.NumRegs()), body: body}
	for i := range s.firstRead {
		s.firstRead[i] = math.MaxInt
	}
	return s
}

// mayDivideByZero reports whether in is a div/rem whose divisor
// register cannot be proven a nonzero constant. Hoisting of div/rem is
// gated on this: the interpreter defines x/0 = 0 and the optimizer
// keeps that evaluation exactly where it was. The pass's input is
// counted at the first div/rem asked about.
func (s *loopUse) mayDivideByZero(in kernelir.Instr) bool {
	var r kernelir.Reg
	switch in.Op {
	case kernelir.OpDivI, kernelir.OpRemI:
		r = kernelir.Reg{File: kernelir.I32, N: in.B}
	case kernelir.OpDivF:
		r = kernelir.Reg{File: kernelir.F32, N: in.B}
	default:
		return false
	}
	if s.defs == nil {
		s.defs = newRegUse(s.k, s.body)
	}
	imm, _, ok := s.defs.constDef(r)
	// imm == 0 catches ±0.0; an int divisor is the truncated value.
	return !ok || imm == 0 || (r.File == kernelir.I32 && int64(imm) == 0)
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
		if invariant && !s.mayDivideByZero(in) {
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
