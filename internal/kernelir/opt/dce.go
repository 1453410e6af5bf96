package opt

import (
	"fmt"

	"synergy/internal/kernelir"
)

// Liveness-driven dead-code/dead-store elimination: the promotion of
// the analysis package's deadPass facts from warnings to deletions. A
// pure instruction whose destination is not live after it is deleted;
// memory and local operations are never deleted (loads included — a
// dead local load still participates in ExecuteChecked trap ordering,
// and stores are observable output). Empty Repeat blocks left behind by
// deletions are removed pairwise.
//
// Liveness is a backward pass with two carryover-aware conservatisms:
//
//   - live-out of the whole body is the use-before-def set: per-worker
//     register files persist across work items, so the next item's
//     read-before-write observes this item's last write;
//   - live at the end of a Repeat body additionally includes every
//     register the body reads anywhere — the back edge makes any
//     in-body read reachable from any in-body point.
func dcePass(k *kernelir.Kernel, body []kernelir.Instr) ([]kernelir.Instr, []Rewrite) {
	tree, err := kernelir.BuildLoopTree(body)
	if err != nil {
		return nil, nil
	}
	live := make([]bool, k.NumRegs())
	tree.ReadsBeforeWrites(k, func(_ int, r kernelir.Reg) { live[k.RegIndex(r)] = true })
	markReads := func(in kernelir.Instr) {
		rs, n := in.Reads()
		for _, r := range rs[:n] {
			live[k.RegIndex(r)] = true
		}
	}
	dead := make(map[int]bool)

	var scan func(lo, hi int)
	scan = func(lo, hi int) {
		pc := hi - 1
		for pc >= lo {
			in := body[pc]
			if in.Op == kernelir.OpRepeatEnd {
				begin := tree.Match(pc)
				// Back edge: everything the body reads is live at its end.
				for _, q := range body[begin+1 : pc] {
					markReads(q)
				}
				scan(begin+1, pc)
				pc = begin - 1
				continue
			}
			w, hasDst := in.Write()
			if pureOp(in) && !live[k.RegIndex(w)] {
				dead[pc] = true
				pc--
				continue
			}
			if hasDst {
				live[k.RegIndex(w)] = false
			}
			markReads(in)
			pc--
		}
	}
	scan(0, len(body))

	out := make([]kernelir.Instr, 0, len(body)-len(dead))
	var rws []Rewrite
	for pc, in := range body {
		if dead[pc] {
			rws = append(rws, Rewrite{
				Pass: "dce", PC: pc,
				Note: fmt.Sprintf("%s result never read (dead past this point and not live-in of the next item)", in.Op),
			})
			continue
		}
		out = append(out, in)
	}
	return sweepEmptyLoops(out, rws)
}

// sweepEmptyLoops removes RepeatBegin/RepeatEnd pairs with empty bodies
// in one pass: a RepeatEnd that meets its begin on top of the kept body
// closes an empty block, so nests emptied inside-out go too. A trip-only
// loop has no effect: the interpreter counts it down and moves on. Each
// pair is logged at its pcs in the body as the deletions and earlier
// removals left it. body must be a copy owned by the caller — it is
// compacted in place.
func sweepEmptyLoops(body []kernelir.Instr, rws []Rewrite) ([]kernelir.Instr, []Rewrite) {
	kept := body[:0]
	for _, in := range body {
		if n := len(kept); in.Op == kernelir.OpRepeatEnd && n > 0 && kept[n-1].Op == kernelir.OpRepeatBegin {
			rws = append(rws,
				Rewrite{Pass: "dce", PC: n - 1, Note: "empty repeat block (begin)"},
				Rewrite{Pass: "dce", PC: n, Note: "empty repeat block (end)"},
			)
			kept = kept[:n-1]
			continue
		}
		kept = append(kept, in)
	}
	if len(rws) == 0 {
		return nil, nil
	}
	return kept, rws
}
