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
// original kernel with Result.Err set. s.mem carries the original
// body's memory sequence from one check to the next. On success
// checkPass returns after's loop tree, which the next pass gets.
func checkPass(s *scratch, before, after []kernelir.Instr, passName string, rws []Rewrite) (*kernelir.LoopTree, error) {
	s.check.Body = after
	if err := s.check.Validate(); err != nil {
		return nil, fmt.Errorf("%s: rewritten body fails validation: %w", passName, err)
	}
	tree, err := kernelir.BuildLoopTree(after)
	if err != nil {
		return nil, fmt.Errorf("%s: rewritten body has no loop tree: %w", passName, err)
	}
	if err := s.mem.check(s.k.Body, after); err != nil {
		return nil, fmt.Errorf("%s: %w", passName, err)
	}
	if err := memOpsFrozen(before, after, passName); err != nil {
		return nil, fmt.Errorf("%s: %w", passName, err)
	}
	switch passName {
	case "constfold", "algebra":
		err = checkInPlace(s.touched, before, after, passName, rws)
	case "cse":
		err = checkCSE(s.touched, before, after, rws)
	case "copyprop":
		err = checkCopyProp(s.touched, before, after, rws)
	case "licm":
		err = checkLICM(before, after, rws)
	case "dce":
		err = checkDCE(before, after, rws)
	default:
		err = fmt.Errorf("unknown pass %q", passName)
	}
	if err != nil {
		return nil, err
	}
	return tree, nil
}

// memEvent is one memory or local-scratch access with its loop context.
// Operand registers are deliberately excluded: copyprop may rename them
// (under its own logged-substitution rule), but the access's opcode,
// buffer, immediate and trip context are pipeline-wide invariants.
type memEvent struct {
	op   kernelir.Op
	buf  int
	imm  uint64
	path int // the enclosing Repeat trip counts, as a memTrace path id
}

// tripStep is a trip path as its enclosing path's id and the trip count
// of its innermost Repeat.
type tripStep struct {
	parent int
	trip   int64
}

// memTrace checks invariant (2) through one Optimize call. paths names
// each trip path by an id, the empty path 0 and any other its
// tripStep's entry; both bodies' sequences take their ids from this one
// table, so equal ids mean equal paths. orig is the original body's
// sequence, built at the first check, and after is reused by every
// check; both are cut from one allocation.
type memTrace struct {
	paths       map[tripStep]int
	orig, after []memEvent
}

// check compares after's memory sequence with orig's: identical
// accesses with identical loop-trip context. Both bodies have passed
// Validate, so their Repeat blocks nest.
func (m *memTrace) check(orig, after []kernelir.Instr) error {
	if m.paths == nil {
		n := countMemOps(orig)
		evs := make([]memEvent, 0, 2*n)
		m.paths = make(map[tripStep]int)
		m.orig, m.after = m.sequence(evs[:0:n], orig), evs[n:n]
	}
	m.after = m.sequence(m.after[:0], after)
	oe, ae := m.orig, m.after
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

// sequence appends body's memory events to evs, in textual order.
func (m *memTrace) sequence(evs []memEvent, body []kernelir.Instr) []memEvent {
	path, outer := 0, make([]int, 0, kernelir.MaxDepth)
	for _, in := range body {
		switch info := in.Op.Info(); {
		case in.Op == kernelir.OpRepeatBegin:
			outer = append(outer, path)
			step := tripStep{path, int64(in.Imm)}
			if path = m.paths[step]; path == 0 {
				path = len(m.paths) + 1
				m.paths[step] = path
			}
		case in.Op == kernelir.OpRepeatEnd:
			path, outer = outer[len(outer)-1], outer[:len(outer)-1]
		case info.IsMemOp || info.IsLocal:
			evs = append(evs, memEvent{op: in.Op, buf: in.Buf, imm: math.Float64bits(in.Imm), path: path})
		}
	}
	return evs
}

// memOpsFrozen enforces the per-pass freeze: the i-th memory/local
// instruction of after must equal the i-th of before — bit-identical
// for every pass except copyprop, which may substitute operand
// registers but not the opcode, destination, buffer or immediate.
func memOpsFrozen(before, after []kernelir.Instr, passName string) error {
	if bn, an := countMemOps(before), countMemOps(after); bn != an {
		return fmt.Errorf("memory-op count changed in one pass: %d -> %d", bn, an)
	}
	i, q := 0, 0 // the memory op's index and after's cursor
	for _, b := range before {
		if !isMemOp(b) {
			continue
		}
		for !isMemOp(after[q]) {
			q++
		}
		a := after[q]
		if passName == "copyprop" {
			if b.Op != a.Op || b.Dst != a.Dst || b.Buf != a.Buf ||
				math.Float64bits(b.Imm) != math.Float64bits(a.Imm) {
				return fmt.Errorf("memory op %d changed beyond operand substitution: %+v -> %+v", i, b, a)
			}
		} else if !instrEq(b, a) {
			return fmt.Errorf("memory op %d modified: %+v -> %+v", i, b, a)
		}
		i, q = i+1, q+1
	}
	return nil
}

// isMemOp reports whether in is a memory or local-scratch access.
func isMemOp(in kernelir.Instr) bool {
	info := in.Op.Info()
	return info.IsMemOp || info.IsLocal
}

func countMemOps(body []kernelir.Instr) int {
	n := 0
	for _, in := range body {
		if isMemOp(in) {
			n++
		}
	}
	return n
}

func instrEq(a, b kernelir.Instr) bool {
	return a.Op == b.Op && a.Dst == b.Dst && a.A == b.A && a.B == b.B &&
		a.C == b.C && a.Buf == b.Buf &&
		math.Float64bits(a.Imm) == math.Float64bits(b.Imm)
}

// checkInPlace covers constfold and algebra: same length, and every
// instruction either is untouched or appears in the rewrite log with its
// destination register (and register file) preserved. touched is
// scratch, one flag per pc of before.
func checkInPlace(touched []bool, before, after []kernelir.Instr, passName string, rws []Rewrite) error {
	if len(before) != len(after) {
		return fmt.Errorf("%s: body length changed: %d -> %d", passName, len(before), len(after))
	}
	touched = touched[:len(before)]
	clear(touched)
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
		bw, bok := before[pc].Write()
		aw, aok := after[pc].Write()
		if bok != aok || bw != aw {
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
func checkCSE(touched []bool, before, after []kernelir.Instr, rws []Rewrite) error {
	if err := checkInPlace(touched, before, after, "cse", rws); err != nil {
		return err
	}
	for _, rw := range rws {
		in := after[rw.PC]
		if in.Op != kernelir.OpMoveI && in.Op != kernelir.OpMoveF {
			return fmt.Errorf("cse: pc %d rewrite is %s, not a move", rw.PC, in.Op)
		}
		src, _ := in.Reads()
		found := false
		for q := 0; q < rw.PC && !found; q++ {
			w, ok := after[q].Write()
			found = ok && w == src[0]
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
// only in A/B/C. touched is scratch, one flag per pc of before.
func checkCopyProp(touched []bool, before, after []kernelir.Instr, rws []Rewrite) error {
	if len(before) != len(after) {
		return fmt.Errorf("copyprop: body length changed: %d -> %d", len(before), len(after))
	}
	touched = touched[:len(before)]
	clear(touched)
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
