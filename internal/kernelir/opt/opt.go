// Package opt is an analysis-driven IR-to-IR optimizer for kernelir
// kernels: a fixpoint pipeline of classic transforming static analyses
// — constant propagation + folding, algebraic simplification and
// strength reduction, available-expressions CSE, loop-invariant code
// motion over the loop tree, and liveness-driven dead-code/dead-store
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
//     only full constant folding, which evaluates on the interpreter
//     itself (Instr.Compute) — so -0.0, NaN payloads and rounding are
//     untouched; folded NaN/Inf constants round-trip through the
//     disassembler;
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
	"math"
	"sort"
	"strings"

	"synergy/internal/kernelir"
)

// maxRounds bounds the fixpoint iteration. Every productive round
// either shrinks the body or strictly reduces loop-resident
// instructions, so real kernels converge in a handful of rounds; the
// cap turns a pass bug into a fail-safe Result.Err instead of a hang.
const maxRounds = 16

// Rewrite records one justified transformation: the pass that applied
// it, the instruction's index, and the licensing analysis fact in
// human-readable form.
type Rewrite struct {
	Pass string // "constfold", "algebra", "cse", "licm", "dce"
	// PC indexes the body as the pass's earlier rewrites left it. For
	// the in-place passes and dce's deletions that is the body before
	// the pass. licm logs each batch in the body its earlier batches
	// left (the note's repeat pc too), and dce logs an emptied repeat
	// in the body left by its deletions and earlier removals.
	PC   int
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

// PassSummary renders PassCounts for a one-line report: "; " and then
// "pass count" items by pass name, comma-separated, or "" when nothing
// was rewritten.
func (r Result) PassSummary() string {
	counts := r.PassCounts()
	if len(counts) == 0 {
		return ""
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s %d", name, counts[name])
	}
	return "; " + strings.Join(parts, ", ")
}

// PctChange renders the change from before to after instructions as a
// signed percentage with one decimal, "+0.0%" for an empty body.
func PctChange(before, after int) string {
	if before == 0 {
		return "+0.0%"
	}
	return fmt.Sprintf("%+.1f%%", 100*float64(after-before)/float64(before))
}

// pass is one pipeline stage. Given the call's scratch, body, body's
// loop tree and the rewrite log so far, it writes its rewritten body
// into the scratch's spare buffer and returns it with the log extended
// by the rewrites it applied. A pass that finds nothing returns the log
// as it got it.
type pass struct {
	name string
	fn   func(s *scratch, body []kernelir.Instr, tree *kernelir.LoopTree, log []Rewrite) ([]kernelir.Instr, []Rewrite)
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
	s := newScratch(k)
	body := append([]kernelir.Instr(nil), k.Body...)
	res.Before = len(body)
	// One loop tree per body version: built here, then the one
	// checkPass builds for each productive pass's output.
	tree, err := kernelir.BuildLoopTree(body)
	if err != nil {
		res.Err = err // unreachable once Validate passed; fail safe
		return k, res
	}
	for round := 0; ; round++ {
		if round == maxRounds {
			res.Err = fmt.Errorf("opt: %s did not converge after %d rounds", k.Name, maxRounds)
			return k, Result{Err: res.Err}
		}
		changed := false
		for _, p := range passes {
			nb, log := p.fn(s, body, tree, res.Rewrites)
			rws := log[len(res.Rewrites):]
			if len(rws) == 0 {
				continue
			}
			nt, err := checkPass(s, body, nb, p.name, rws)
			if err != nil {
				return k, Result{Err: fmt.Errorf("opt: %s: translation validation failed: %w", k.Name, err)}
			}
			// The replaced body's buffer takes the next pass's output.
			s.spare, body, tree = body, nb, nt
			changed = true
			res.Rewrites = log
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

// scratch is the working memory of one Optimize call, made once for
// its kernel and handed to every pass and check. Each pass writes its
// output into spare, and Optimize swaps spare with the body the
// output replaces, so the call holds two body buffers however many
// passes and rounds it runs. Bodies never grow, so buffers sized for
// the input fit every later body. Per-register state is indexed by the
// flat register index and per-pc state by pc; each pass clears the
// state it uses, so passes may share it.
type scratch struct {
	k     *kernelir.Kernel
	spare []kernelir.Instr
	vers  []int // cse's and copyprop's register versions
	// avail is cse's table, sized for the body's cseable instructions,
	// the most it can hold.
	avail  map[exprKey]exprHolder
	copies []regCopy // copyprop's live copies
	consts constState
	use    regUse // algebra's and licm's counts
	loop   loopUse
	live   []bool // dce's liveness, by register
	dead   []bool // dce's deletions, by pc
	// check and touched serve the checker: k with the body under
	// check, and the pcs its rewrite log names.
	check   *kernelir.Kernel
	touched []bool
	mem     memTrace
}

func newScratch(k *kernelir.Kernel) *scratch {
	n, pcs := k.NumRegs(), len(k.Body)
	ints := make([]int, 6*n)
	flags := make([]bool, n+2*pcs)
	s := &scratch{
		k:      k,
		spare:  make([]kernelir.Instr, 0, pcs),
		vers:   ints[:n],
		avail:  make(map[exprKey]exprHolder, cseables(k.Body)),
		copies: make([]regCopy, n),
		consts: constState{k: k, vals: make([]constVal, n)},
		use: regUse{k: k, writes: ints[n : 2*n], reads: ints[2*n : 3*n],
			lastWrite: ints[3*n : 4*n]},
		loop:    loopUse{k: k, writes: ints[4*n : 5*n], firstRead: ints[5*n:]},
		live:    flags[:n],
		dead:    flags[n : n+pcs],
		check:   k.WithBody(nil),
		touched: flags[n+pcs:],
	}
	s.loop.use = &s.use
	for i := range s.loop.firstRead {
		s.loop.firstRead[i] = math.MaxInt
	}
	return s
}

// next returns spare holding a copy of body, for a pass that rewrites
// in place.
func (s *scratch) next(body []kernelir.Instr) []kernelir.Instr {
	return append(s.spare[:0], body...)
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

// walk visits body's non-control instructions in program order; tree
// is body's loop tree. On entering a Repeat block it first calls kill
// with every register the block writes, nested blocks included:
// iterations after the first observe the loop-carried values, so facts
// about those registers from before the block do not hold inside it,
// and one linear walk is sound for every iteration. visit may rewrite
// body[pc] in place, keeping its destination.
func walk(tree *kernelir.LoopTree, body []kernelir.Instr, kill func(kernelir.Reg), visit func(pc int)) {
	for pc := range body {
		switch body[pc].Op {
		case kernelir.OpRepeatBegin:
			for _, in := range body[pc+1 : tree.Match(pc)] {
				if w, ok := in.Write(); ok {
					kill(w)
				}
			}
		case kernelir.OpRepeatEnd:
		default:
			visit(pc)
		}
	}
}

// regUse counts, by flat register index, the writes to each register
// in body, its reads (operand slots) and the pc of its last write. A
// pass counts it at most once. A pass that rewrites body in place keeps
// it current through set; one that only moves instructions reads it
// against the body it was counted on.
type regUse struct {
	k                        *kernelir.Kernel
	body                     []kernelir.Instr
	writes, reads, lastWrite []int
}

// count recounts u over body.
func (u *regUse) count(body []kernelir.Instr) *regUse {
	u.body = body
	clear(u.writes)
	clear(u.reads)
	clear(u.lastWrite)
	for pc, in := range body {
		u.countReads(in, 1)
		if w, ok := in.Write(); ok {
			i := u.k.RegIndex(w)
			u.writes[i]++
			u.lastWrite[i] = pc
		}
	}
	return u
}

func (u *regUse) countReads(in kernelir.Instr, delta int) {
	rs, n := in.Reads()
	for _, r := range rs[:n] {
		u.reads[u.k.RegIndex(r)] += delta
	}
}

// set replaces body[pc] with in, which must write the register the
// instruction it replaces wrote, and keeps the read counts current.
func (u *regUse) set(pc int, in kernelir.Instr) {
	u.countReads(u.body[pc], -1)
	u.body[pc] = in
	u.countReads(in, 1)
}

// constDef returns the value and pc of r's definition, if r is written
// exactly once in the body and that write is an OpConstI/OpConstF.
// Passes use it to prove a divisor is a nonzero constant (licensing
// div/rem hoisting) and to find strength-reduction candidates.
func (u *regUse) constDef(r kernelir.Reg) (imm float64, defPC int, ok bool) {
	i := u.k.RegIndex(r)
	if u.writes[i] != 1 {
		return 0, -1, false
	}
	def := u.body[u.lastWrite[i]]
	if def.Op != kernelir.OpConstI && def.Op != kernelir.OpConstF {
		return 0, -1, false
	}
	return def.Imm, u.lastWrite[i], true
}
