// Package analysis implements a multi-pass dataflow static analyzer for
// the kernel IR, plus the static roofline classifier behind
// cmd/synergy-lint. All passes share one loop-tree normalization of the
// Repeat structure (kernelir.BuildLoopTree — the same one the
// interpreter and the feature-extraction pass use), which is what makes
// them exact rather than conservative for this IR: the only control flow
// is statically-bounded counted loops, so the first iteration of every
// loop body executes in program order and every instruction's execution
// count is a static product of trip counts. See DESIGN.md §9.
package analysis

import (
	"fmt"

	"synergy/internal/hw"
	"synergy/internal/kernelir"
)

// Options configures Analyze.
type Options struct {
	// Spec enables the roofline pass against the given device; nil skips
	// it.
	Spec *hw.Spec
}

// Analyze runs the full pass pipeline over the kernel and returns a
// report. It never panics on structurally sound input and is total: a
// kernel failing kernelir.Validate still gets the dataflow passes (with
// the failure surfaced as an error diagnostic) as long as its opcodes
// and its register and parameter indices are in range.
func Analyze(k *kernelir.Kernel, opts Options) *Report {
	r := &Report{Kernel: k.Name}
	a := &analyzer{k: k, report: r}

	valid := true
	if err := k.Validate(); err != nil {
		valid = false
		r.Diagnostics = append(r.Diagnostics, Diagnostic{
			Pass: "validate", Severity: Error, PC: -1, Message: err.Error(),
		})
	}
	if !a.structurallySound() {
		// Out-of-range register or parameter indices: the dataflow
		// passes cannot index their state safely, and Validate has
		// already reported the defect.
		return r
	}
	tree, err := kernelir.BuildLoopTree(k.Body)
	if err != nil {
		if valid {
			// Unreachable when Validate passed; keep the report total.
			r.Diagnostics = append(r.Diagnostics, Diagnostic{
				Pass: "validate", Severity: Error, PC: -1, Message: err.Error(),
			})
		}
		return r
	}
	a.tree = tree

	a.uninitPass()
	a.deadPass()
	a.boundsPass()
	if valid && opts.Spec != nil {
		if rf, err := StaticRoofline(k, opts.Spec); err == nil {
			r.Roofline = rf
			a.diag("roofline", Info, -1, rf.Summary())
		}
	}
	sortDiagnostics(r.Diagnostics)
	return r
}

// analyzer carries the shared state of one Analyze call.
type analyzer struct {
	k      *kernelir.Kernel
	tree   *kernelir.LoopTree
	report *Report
}

func (a *analyzer) diag(pass string, sev Severity, pc int, format string, args ...any) {
	d := Diagnostic{Pass: pass, Severity: sev, PC: pc, Message: fmt.Sprintf(format, args...)}
	if pc >= 0 {
		d.Line = a.k.InstrString(pc)
	}
	a.report.Diagnostics = append(a.report.Diagnostics, d)
}

// structurallySound reports whether every opcode is in the operand
// table and every register and parameter index is in range, the
// precondition for running the dataflow passes on a kernel Validate
// rejected for other reasons.
func (a *analyzer) structurallySound() bool {
	k := a.k
	inFile := func(r kernelir.Reg) bool { return r.N >= 0 && r.N < k.FileSize(r.File) }
	for _, in := range k.Body {
		if !in.Op.Valid() {
			return false
		}
		if w, ok := in.Write(); ok && !inFile(w) {
			return false
		}
		rs, n := in.Reads()
		for _, r := range rs[:n] {
			if !inFile(r) {
				return false
			}
		}
		if in.Op.Info().UsesBuf && (in.Buf < 0 || in.Buf >= len(k.Params)) {
			return false
		}
	}
	return true
}

// skippableTrip reports whether a Repeat body never executes. Validate
// rejects such kernels, but the passes stay total over them: the body is
// dead code, so defs inside must not count as reaching and reads inside
// must not be reported.
func skippableTrip(trip float64) bool { return trip < 1 }

// uninitPass is the reaching-definitions pass over both register files:
// kernelir's read-before-write scan, which is exact for this IR (see
// LoopTree.ReadsBeforeWrites). A register read before any program-order
// write is read uninitialized on the very first work-item, so the
// finding is an error, not a may-warning. Each register is reported
// once, at its first read: that read is the actionable one.
func (a *analyzer) uninitPass() {
	a.tree.ReadsBeforeWrites(a.k, func(pc int, r kernelir.Reg) {
		a.diag("uninit", Error, pc, "read of register %s before any write", r)
	})
}

// deadPass detects dead stores (registers written but never read), dead
// code (zero-trip and empty Repeat bodies) and unused parameters. The
// "never read anywhere" formulation is flow-insensitive on purpose: a
// per-definition liveness would also flag the final writes of reduction
// networks (e.g. the discarded max lane of a sorting-network exchange),
// which are idiomatic in real kernels, while a register no instruction
// ever reads is unambiguously dead.
func (a *analyzer) deadPass() {
	k := a.k
	read := make([]bool, k.NumRegs())
	paramRefs := make([]int, len(k.Params))
	for _, in := range k.Body {
		rs, n := in.Reads()
		for _, r := range rs[:n] {
			read[k.RegIndex(r)] = true
		}
		if in.Op.Info().UsesBuf {
			paramRefs[in.Buf]++
		}
	}
	// One diagnostic per dead register, at its first write.
	seen := make([]bool, k.NumRegs())
	for pc, in := range k.Body {
		w, ok := in.Write()
		if !ok {
			continue
		}
		if i := k.RegIndex(w); !read[i] && !seen[i] {
			seen[i] = true
			a.diag("dead-store", Warning, pc, "register %s is written but never read", w)
		}
	}
	for i, p := range k.Params {
		if paramRefs[i] == 0 {
			a.diag("unused-param", Warning, -1, "parameter %q is never referenced", p.Name)
		}
	}
	a.deadCode()
}

// deadCode flags Repeat bodies that cannot execute (zero or negative
// trip counts) or contain no instructions, scanning the repeat begins
// in body order.
func (a *analyzer) deadCode() {
	body := a.k.Body
	for pc := 0; pc < len(body); pc++ {
		in := body[pc]
		if in.Op != kernelir.OpRepeatBegin {
			continue
		}
		end := a.tree.Match(pc)
		if skippableTrip(in.Imm) {
			a.diag("dead-code", Warning, pc,
				"repeat body never executes (trip count %v)", in.Imm)
			pc = end // everything inside is already dead
			continue
		}
		if end == pc+1 {
			a.diag("dead-code", Warning, pc, "empty repeat body")
		}
	}
}
