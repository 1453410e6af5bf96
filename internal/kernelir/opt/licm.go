package opt

import (
	"fmt"
	"math"

	"synergy/internal/kernelir"
)

// Loop-invariant code motion over the loop tree. An instruction may
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
// The pass drains the loops in ascending order of their end pcs, which
// is post-order: children before their loop and siblings in body order.
// It hoists batch after batch out of one loop until nothing in it
// qualifies, then moves on. A batch permutes only the span before its
// loop's end, so it moves no end and, of the loops still to drain, only
// its own loop's begin (down, past the batch); the input's loop tree
// locates every loop. A batch adds nothing to a loop drained before, so
// the drain hoists the batches that restarting from the innermost loop
// after each batch would. Chains of invariant instructions cascade out
// of nested loops (the const feeding a mul feeding an add all reach the
// outermost prologue). LICM moves instructions but never rewrites one,
// so the divisor facts of the pass's input hold throughout.
func licmPass(s *scratch, body []kernelir.Instr, tree *kernelir.LoopTree, rws []Rewrite) ([]kernelir.Instr, []Rewrite) {
	out, l := s.next(body), s.loop.reset(body)
	for end, in := range body {
		if in.Op != kernelir.OpRepeatEnd {
			continue
		}
		for begin := tree.Match(end); ; {
			picks := l.hoistable(out, begin, end)
			if len(picks) == 0 {
				break
			}
			rws = l.hoist(out, begin, picks, rws)
			begin += len(picks)
		}
	}
	return out, rws
}

// hoist moves the picked instructions (ascending pcs inside the loop
// whose RepeatBegin is at begin) to just before that begin, in their
// order, and logs each move; the rest of the span keeps its order.
func (s *loopUse) hoist(out []kernelir.Instr, begin int, picks []int, rws []Rewrite) []Rewrite {
	last := picks[len(picks)-1]
	span := s.span[:0]
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
	s.span = span
	return rws
}

// loopUse holds, for the loop hoistable is looking at, each register's
// write count and the pc of its first read, by flat register index.
// hoistable clears both after each loop, so a kernel of many small
// loops pays for what its loops touch, not for its register files.
// body is the pass's input, and use counts it for the divisor test,
// once, when the first invariant div/rem asks. picks and span are the
// batch buffers hoistable and hoist reuse.
type loopUse struct {
	k         *kernelir.Kernel
	writes    []int
	firstRead []int // math.MaxInt when unread
	body      []kernelir.Instr
	use       *regUse
	counted   bool
	picks     []int
	span      []kernelir.Instr
}

// reset starts a pass over body.
func (s *loopUse) reset(body []kernelir.Instr) *loopUse {
	s.body, s.counted = body, false
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
	if !s.counted {
		s.use.count(s.body)
		s.counted = true
	}
	imm, _, ok := s.use.constDef(r)
	// imm == 0 catches ±0.0; an int divisor is the truncated value.
	return !ok || imm == 0 || (r.File == kernelir.I32 && int64(imm) == 0)
}

// hoistable returns the pcs (ascending) of instructions eligible to
// move out of the loop whose body spans (begin, end), in a buffer the
// next call reuses. One scan counts the body's writes and first reads;
// each candidate is then tested against those counts.
func (s *loopUse) hoistable(out []kernelir.Instr, begin, end int) []int {
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
	picks := s.picks[:0]
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
	s.picks = picks
	return picks
}
