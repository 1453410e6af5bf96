// Package opt is an analysis-driven IR-to-IR optimizer for kernelir
// kernels: a fixpoint pipeline of classic transforming static analyses
// — constant propagation + folding, algebraic simplification and
// strength reduction, available-expressions CSE, loop-invariant code
// motion over BuildLoopTree, and liveness-driven dead-code/dead-store
// elimination (the same facts the analysis package reports as warnings,
// promoted to deletions).
//
// The contract is translation validation, mirroring the compile
// package's oracle discipline but enforced online: every pass
// application is followed by a static checker (Validate, loop-tree
// construction, exact preservation of the memory-operation sequence
// with its loop context, and per-rewrite shape rules), and any checker
// failure makes Optimize fail safe — the original kernel is returned
// unchanged with Result.Err set. The interpreter remains the semantic
// oracle in tests: optimized kernels must produce byte-identical
// buffers and identical trap behavior (TestOptSuiteOracle,
// FuzzOptVsInterp).
//
// Semantics preserved bit-exactly, by construction:
//
//   - registers are NOT assumed zero on entry: per-worker register
//     files carry over across work-items, so constant propagation
//     starts from ⊤ and liveness treats every register the body reads
//     before writing as live-in (and hence live across the item
//     boundary);
//   - float arithmetic identities (x+0, x*1, ...) are never rewritten —
//     only full constant folding, which performs the identical Go
//     operation the interpreter would — so -0.0, NaN payloads and
//     rounding are untouched; folded NaN/Inf constants round-trip
//     through the disassembler;
//   - integer constants fold only when the result survives the
//     float64 Instr.Imm encoding round-trip;
//   - div/rem with a (possibly) zero divisor are never folded and never
//     hoisted, keeping the interpreter's x/0 = 0 path in place;
//   - memory and local-scratch operations are never deleted, reordered
//     or moved across loop boundaries, so colliding stores keep their
//     order and ExecuteChecked traps fire identically.
//
// Optimize is deterministic and idempotent (passes run to fixpoint), so
// optimizing an already-optimized kernel returns it unchanged.
package opt

import (
	"fmt"

	"synergy/internal/kernelir"
)

// maxRounds bounds the fixpoint iteration. Every productive round
// either shrinks the body or strictly reduces loop-resident
// instructions, so real kernels converge in a handful of rounds; the
// cap turns a pass bug into a fail-safe Result.Err instead of a hang.
const maxRounds = 16

// Rewrite records one justified transformation: the pass that applied
// it, the instruction index in the body the pass saw (before the pass
// ran), and the licensing analysis fact in human-readable form.
type Rewrite struct {
	Pass string // "constfold", "algebra", "cse", "licm", "dce"
	PC   int    // index into the pre-pass body
	Note string // the analysis fact that licensed the rewrite
}

// Result describes one optimization run.
type Result struct {
	// Before and After are the body instruction counts. Equal (and zero
	// rewrites) means the kernel was already in normal form.
	Before, After int
	// Rounds is the number of full pipeline rounds run, including the
	// final no-change round that proved the fixpoint.
	Rounds int
	// Hoisted counts loop-invariant instructions moved out of Repeat
	// blocks (the licm rewrites).
	Hoisted int
	// Rewrites is the full justification log in application order.
	Rewrites []Rewrite
	// Err is non-nil when the input kernel failed Validate or a pass
	// failed translation validation; the kernel was returned unchanged.
	Err error
}

// Changed reports whether any rewrite was applied.
func (r Result) Changed() bool { return len(r.Rewrites) > 0 }

// PassCounts tallies rewrites by pass name.
func (r Result) PassCounts() map[string]int {
	m := make(map[string]int)
	for _, rw := range r.Rewrites {
		m[rw.Pass]++
	}
	return m
}

// pass is one pipeline stage: it returns a rewritten copy of body and
// the rewrites applied, or (nil, nil) when it found nothing.
type pass struct {
	name string
	fn   func(k *kernelir.Kernel, body []kernelir.Instr) ([]kernelir.Instr, []Rewrite)
}

// passes is the pipeline order. Folding first exposes operands to the
// algebraic rules, CSE then dedups what is left, copy propagation
// forwards the resulting moves into their readers, LICM moves invariant
// remainder out of loops, and DCE sweeps everything the earlier passes
// orphaned. The driver loops the whole pipeline to fixpoint, so
// inter-pass cascades (a fold enabling a hoist enabling a deletion)
// need no special ordering.
var passes = []pass{
	{"constfold", foldPass},
	{"algebra", algebraPass},
	{"cse", csePass},
	{"copyprop", copyPropPass},
	{"licm", licmPass},
	{"dce", dcePass},
}

// Optimize rewrites k into an equivalent, smaller normal form. It never
// mutates k: the result is either k itself (already in normal form, or
// fail-safe on error) or a fresh kernel sharing k's metadata with a new
// body. The returned kernel Validates, has the same parameters,
// register-file sizes, locals and traffic factor, and — per the
// translation-validation contract — produces byte-identical buffers and
// identical traps for every launch.
func Optimize(k *kernelir.Kernel) (*kernelir.Kernel, Result) {
	var res Result
	if err := k.Validate(); err != nil {
		res.Err = err
		return k, res
	}
	body := append([]kernelir.Instr(nil), k.Body...)
	res.Before = len(body)
	for round := 0; ; round++ {
		if round == maxRounds {
			res.Err = fmt.Errorf("opt: %s did not converge after %d rounds", k.Name, maxRounds)
			return k, Result{Err: res.Err}
		}
		changed := false
		for _, p := range passes {
			nb, rws := p.fn(k, body)
			if len(rws) == 0 {
				continue
			}
			if err := checkPass(k, k.Body, body, nb, p.name, rws); err != nil {
				return k, Result{Err: fmt.Errorf("opt: %s: translation validation failed: %w", k.Name, err)}
			}
			body = nb
			changed = true
			res.Rewrites = append(res.Rewrites, rws...)
			if p.name == "licm" {
				res.Hoisted += len(rws)
			}
		}
		if !changed {
			res.Rounds = round + 1
			break
		}
	}
	res.After = len(body)
	if !res.Changed() {
		return k, res
	}
	nk := k.WithBody(body)
	if err := nk.Validate(); err != nil {
		// Unreachable if the per-pass checker is correct; fail safe anyway.
		return k, Result{Err: fmt.Errorf("opt: %s: optimized kernel fails validation: %w", k.Name, err)}
	}
	return nk, res
}

// --- shared dataflow helpers -----------------------------------------

// pureOp reports whether in computes a register value with no memory,
// local-scratch or control effect — the class of instructions the
// passes may delete, hoist or replace. Scalar-parameter reads and
// global-id reads are pure: their values are fixed for the lifetime of
// one work item.
func pureOp(in kernelir.Instr) bool {
	info := in.Op.Info()
	return info.Writes && !info.IsMemOp && !info.IsLocal
}

// uniqueConstDef returns the value of the unique constant definition of
// r in body, if r is written exactly once and that write is an
// OpConstI/OpConstF. Passes use it to prove a divisor is a nonzero
// constant (licensing div/rem hoisting) and to find strength-reduction
// candidates.
func uniqueConstDef(body []kernelir.Instr, r kernelir.Reg) (imm float64, defPC int, ok bool) {
	defPC = -1
	for pc, in := range body {
		if w, has := in.Write(); !has || w != r {
			continue
		}
		if defPC >= 0 {
			return 0, -1, false // multiply defined
		}
		defPC = pc
		switch in.Op {
		case kernelir.OpConstI, kernelir.OpConstF:
		default:
			return 0, -1, false
		}
		imm = in.Imm
	}
	if defPC < 0 {
		return 0, -1, false
	}
	return imm, defPC, true
}

// readCount counts how many operand slots in body read r.
func readCount(body []kernelir.Instr, r kernelir.Reg) int {
	count := 0
	for _, in := range body {
		rs, n := in.Reads()
		for _, s := range rs[:n] {
			if s == r {
				count++
			}
		}
	}
	return count
}

// divisorMayBeZero reports whether a div/rem divisor register cannot be
// proven a nonzero constant. Folding and hoisting of div/rem are gated
// on this: the interpreter defines x/0 = 0 and the optimizer keeps that
// evaluation exactly where it was.
func divisorMayBeZero(body []kernelir.Instr, in kernelir.Instr) bool {
	switch in.Op {
	case kernelir.OpDivI, kernelir.OpRemI:
		imm, _, ok := uniqueConstDef(body, kernelir.Reg{File: kernelir.I32, N: in.B})
		return !ok || int64(imm) == 0
	case kernelir.OpDivF:
		imm, _, ok := uniqueConstDef(body, kernelir.Reg{File: kernelir.F32, N: in.B})
		return !ok || imm == 0 // catches ±0.0
	}
	return false
}
