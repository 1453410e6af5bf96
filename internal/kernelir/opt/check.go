package opt

import (
	"fmt"
	"math"

	"synergy/internal/kernelir"
)

// checkPass is the static half of translation validation: it runs after
// every productive pass application and rejects the rewrite unless it
// can re-establish, from the before/after bodies alone, that the pass
// stayed inside its licensed envelope. Checks:
//
//  1. the rewritten kernel still Validates and builds a loop tree;
//  2. the memory-operation sequence — every load, store and
//     local-scratch access, in textual order, with its opcode, buffer,
//     immediate bits and enclosing Repeat trip path — is identical to
//     the ORIGINAL kernel's (not merely the previous pass's), so no
//     pipeline of passes can compound into a reordered, dropped or
//     cross-buffer-retargeted access; additionally, each individual
//     pass except copyprop must leave every memory instruction
//     bit-identical (copyprop may substitute operand registers, one
//     logged rewrite per substitution);
//  3. pass-specific shape rules tie each Rewrite to a transformation of
//     the kind the pass is allowed to make (in-place fold, move
//     insertion with an earlier source definition, operand-only
//     substitution, multiset-preserving motion, pure-only deletion).
//
// Any violation fails the whole optimization: Optimize returns the
// original kernel with Result.Err set.
func checkPass(k *kernelir.Kernel, orig, before, after []kernelir.Instr, passName string, rws []Rewrite) error {
	nk := k.WithBody(after)
	if err := nk.Validate(); err != nil {
		return fmt.Errorf("%s: rewritten body fails validation: %w", passName, err)
	}
	if _, err := kernelir.BuildLoopTree(after); err != nil {
		return fmt.Errorf("%s: rewritten body has no loop tree: %w", passName, err)
	}
	if err := sameMemSequence(orig, after); err != nil {
		return fmt.Errorf("%s: %w", passName, err)
	}
	if err := memOpsFrozen(before, after, passName); err != nil {
		return fmt.Errorf("%s: %w", passName, err)
	}
	switch passName {
	case "constfold", "algebra":
		return checkInPlace(before, after, passName, rws)
	case "cse":
		return checkCSE(before, after, rws)
	case "copyprop":
		return checkCopyProp(before, after, rws)
	case "licm":
		return checkLICM(before, after, rws)
	case "dce":
		return checkDCE(before, after, rws)
	}
	return fmt.Errorf("unknown pass %q", passName)
}

// memEvent is one memory or local-scratch access with its loop context.
// Operand registers are deliberately excluded: copyprop may rename them
// (under its own logged-substitution rule), but the access's opcode,
// buffer, immediate and trip context are pipeline-wide invariants.
type memEvent struct {
	op   kernelir.Op
	buf  int
	imm  uint64
	path string // "/"-joined enclosing Repeat trip counts
}

func memSequence(body []kernelir.Instr) ([]memEvent, error) {
	tree, err := kernelir.BuildLoopTree(body)
	if err != nil {
		return nil, err
	}
	var evs []memEvent
	var scan func(lo, hi int, path string)
	scan = func(lo, hi int, path string) {
		for pc := lo; pc < hi; pc++ {
			in := body[pc]
			if in.Op == kernelir.OpRepeatBegin {
				end := tree.Match(pc)
				scan(pc+1, end, fmt.Sprintf("%s/%d", path, int64(in.Imm)))
				pc = end
				continue
			}
			c := kernelir.InfoOf(in.Op)
			if !c.IsMemOp && !c.IsLocal {
				continue
			}
			evs = append(evs, memEvent{
				op: in.Op, buf: in.Buf, imm: math.Float64bits(in.Imm), path: path,
			})
		}
	}
	scan(0, len(body), "")
	return evs, nil
}

// sameMemSequence checks invariant (2): identical access sequences with
// identical loop-trip context.
func sameMemSequence(orig, after []kernelir.Instr) error {
	oe, err := memSequence(orig)
	if err != nil {
		return err
	}
	ae, err := memSequence(after)
	if err != nil {
		return err
	}
	if len(oe) != len(ae) {
		return fmt.Errorf("memory-op count changed: %d -> %d", len(oe), len(ae))
	}
	for i := range oe {
		if oe[i] != ae[i] {
			return fmt.Errorf("memory op %d changed: %+v -> %+v", i, oe[i], ae[i])
		}
	}
	return nil
}

// memOpsFrozen enforces the per-pass freeze: the i-th memory/local
// instruction of after must equal the i-th of before — bit-identical
// for every pass except copyprop, which may substitute operand
// registers but not the opcode, destination, buffer or immediate.
func memOpsFrozen(before, after []kernelir.Instr, passName string) error {
	memOps := func(body []kernelir.Instr) []kernelir.Instr {
		var out []kernelir.Instr
		for _, in := range body {
			if c := kernelir.InfoOf(in.Op); c.IsMemOp || c.IsLocal {
				out = append(out, in)
			}
		}
		return out
	}
	bm, am := memOps(before), memOps(after)
	if len(bm) != len(am) {
		return fmt.Errorf("memory-op count changed in one pass: %d -> %d", len(bm), len(am))
	}
	for i := range bm {
		if passName == "copyprop" {
			if bm[i].Op != am[i].Op || bm[i].Dst != am[i].Dst || bm[i].Buf != am[i].Buf ||
				math.Float64bits(bm[i].Imm) != math.Float64bits(am[i].Imm) {
				return fmt.Errorf("memory op %d changed beyond operand substitution: %+v -> %+v", i, bm[i], am[i])
			}
			continue
		}
		if !instrEq(bm[i], am[i]) {
			return fmt.Errorf("memory op %d modified: %+v -> %+v", i, bm[i], am[i])
		}
	}
	return nil
}

func instrEq(a, b kernelir.Instr) bool {
	return a.Op == b.Op && a.Dst == b.Dst && a.A == b.A && a.B == b.B &&
		a.C == b.C && a.Buf == b.Buf &&
		math.Float64bits(a.Imm) == math.Float64bits(b.Imm)
}

// checkInPlace covers constfold and algebra: same length, and every
// instruction either is untouched or appears in the rewrite log with its
// destination register (and register file) preserved.
func checkInPlace(before, after []kernelir.Instr, passName string, rws []Rewrite) error {
	if len(before) != len(after) {
		return fmt.Errorf("%s: body length changed: %d -> %d", passName, len(before), len(after))
	}
	touched := make(map[int]bool, len(rws))
	for _, rw := range rws {
		if rw.PC < 0 || rw.PC >= len(before) {
			return fmt.Errorf("%s: rewrite pc %d out of range", passName, rw.PC)
		}
		touched[rw.PC] = true
	}
	for pc := range before {
		if !touched[pc] {
			if !instrEq(before[pc], after[pc]) {
				return fmt.Errorf("%s: pc %d changed without a logged rewrite", passName, pc)
			}
			continue
		}
		bf, bd, bok := writeOf(before[pc])
		af, ad, aok := writeOf(after[pc])
		if bok != aok || (bok && (bf != af || bd != ad)) {
			return fmt.Errorf("%s: pc %d rewrite changed the destination register", passName, pc)
		}
		if !pureOp(before[pc]) || !pureOp(after[pc]) {
			return fmt.Errorf("%s: pc %d rewrite touched a non-pure instruction", passName, pc)
		}
	}
	return nil
}

// checkCSE: in-place rules plus every rewritten pc must now be a move
// whose source register has a definition earlier in the body.
func checkCSE(before, after []kernelir.Instr, rws []Rewrite) error {
	if err := checkInPlace(before, after, "cse", rws); err != nil {
		return err
	}
	for _, rw := range rws {
		in := after[rw.PC]
		if in.Op != kernelir.OpMoveI && in.Op != kernelir.OpMoveF {
			return fmt.Errorf("cse: pc %d rewrite is %s, not a move", rw.PC, in.Op)
		}
		file := kernelir.InfoOf(in.Op).AFile
		found := false
		for q := 0; q < rw.PC && !found; q++ {
			if f, r, ok := writeOf(after[q]); ok && f == file && r == in.A {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("cse: pc %d move source r%d has no earlier definition", rw.PC, in.A)
		}
	}
	return nil
}

// checkCopyProp: operand-register substitution only — same length, and
// every instruction keeps its opcode, destination, immediate and buffer.
// Untouched instructions must be bit-identical; touched ones may differ
// only in A/B/C.
func checkCopyProp(before, after []kernelir.Instr, rws []Rewrite) error {
	if len(before) != len(after) {
		return fmt.Errorf("copyprop: body length changed: %d -> %d", len(before), len(after))
	}
	touched := make(map[int]bool, len(rws))
	for _, rw := range rws {
		if rw.PC < 0 || rw.PC >= len(before) {
			return fmt.Errorf("copyprop: rewrite pc %d out of range", rw.PC)
		}
		touched[rw.PC] = true
	}
	for pc := range before {
		if !touched[pc] {
			if !instrEq(before[pc], after[pc]) {
				return fmt.Errorf("copyprop: pc %d changed without a logged rewrite", pc)
			}
			continue
		}
		b, a := before[pc], after[pc]
		if b.Op != a.Op || b.Dst != a.Dst || b.Buf != a.Buf ||
			math.Float64bits(b.Imm) != math.Float64bits(a.Imm) {
			return fmt.Errorf("copyprop: pc %d changed beyond operand substitution: %+v -> %+v", pc, b, a)
		}
	}
	return nil
}

type instrKey struct {
	op               kernelir.Op
	dst, a, b, c, bf int
	imm              uint64
}

func keyOf(in kernelir.Instr) instrKey {
	return instrKey{op: in.Op, dst: in.Dst, a: in.A, b: in.B, c: in.C,
		bf: in.Buf, imm: math.Float64bits(in.Imm)}
}

// checkLICM: code motion only — the instruction multiset is unchanged.
func checkLICM(before, after []kernelir.Instr, rws []Rewrite) error {
	if len(before) != len(after) {
		return fmt.Errorf("licm: body length changed: %d -> %d", len(before), len(after))
	}
	counts := make(map[instrKey]int, len(before))
	for _, in := range before {
		counts[keyOf(in)]++
	}
	for _, in := range after {
		counts[keyOf(in)]--
	}
	for key, n := range counts {
		if n != 0 {
			return fmt.Errorf("licm: instruction multiset changed at %+v (delta %d)", key, n)
		}
	}
	return nil
}

// checkDCE: deletions only — after is a subsequence of before, the
// length difference matches the rewrite log, and every dropped
// instruction is pure or a Repeat marker (an emptied block).
func checkDCE(before, after []kernelir.Instr, rws []Rewrite) error {
	if len(after)+len(rws) != len(before) {
		return fmt.Errorf("dce: %d deletions logged but body went %d -> %d",
			len(rws), len(before), len(after))
	}
	ai := 0
	for _, in := range before {
		if ai < len(after) && instrEq(in, after[ai]) {
			ai++
			continue
		}
		if !pureOp(in) && in.Op != kernelir.OpRepeatBegin && in.Op != kernelir.OpRepeatEnd {
			return fmt.Errorf("dce: deleted non-pure instruction %s", in.Op)
		}
	}
	if ai != len(after) {
		return fmt.Errorf("dce: rewritten body is not a subsequence of its input")
	}
	return nil
}
