package kernelir

import "fmt"

// LoopTree is the shared structured-control normalization of a kernel
// body: the pc of the OpRepeatEnd that closes each OpRepeatBegin, and
// the other way round. Because the IR's only control flow is
// statically-bounded Repeat nesting, that table is the whole
// control-flow graph of any kernel; the interpreter and the compiler
// (begin/end matching), the feature extraction pass (trip-count
// multipliers, internal/features), the static analyzer
// (internal/kernelir/analysis) and the optimizer all read it instead of
// re-deriving it.
type LoopTree struct {
	body  []Instr
	match []int
}

// BuildLoopTree normalizes a body's Repeat structure, failing on
// unmatched begin/end pairs.
func BuildLoopTree(body []Instr) (*LoopTree, error) {
	t := &LoopTree{body: body, match: make([]int, len(body))}
	open := make([]int, 0, MaxDepth) // pcs of the unclosed begins
	for pc, in := range body {
		switch in.Op {
		case OpRepeatBegin:
			open = append(open, pc)
		case OpRepeatEnd:
			if len(open) == 0 {
				return nil, fmt.Errorf("kernelir: unmatched repeat end at %d", pc)
			}
			begin := open[len(open)-1]
			open = open[:len(open)-1]
			t.match[begin], t.match[pc] = pc, begin
		}
	}
	if len(open) != 0 {
		return nil, fmt.Errorf("kernelir: unclosed repeat block")
	}
	return t, nil
}

// Match returns the pc of the matching OpRepeatEnd for an OpRepeatBegin
// pc and vice versa (undefined for other pcs).
func (t *LoopTree) Match(pc int) int { return t.match[pc] }

// ReadsBeforeWrites calls fn once for each register whose first access
// in the body is a read, at that read, in program order; an
// instruction's reads come before its write, in slot order. k sizes the
// register files. The only control flow is Repeat blocks that run at
// least once, so the first iteration of every block executes in
// program order and one linear scan is exact. A block with a trip count
// below 1 never runs and is skipped (Validate refuses it; the analyzer
// still meets it). ExecuteChecked traps on the first such read, the
// optimizer keeps these registers live across work items, and the
// analyzer reports each one.
func (t *LoopTree) ReadsBeforeWrites(k *Kernel, fn func(pc int, r Reg)) {
	seen := make([]bool, k.NumRegs())
	for pc := 0; pc < len(t.body); pc++ {
		in := t.body[pc]
		if in.Op == OpRepeatBegin && in.Imm < 1 {
			pc = t.match[pc]
			continue
		}
		rs, n := in.Reads()
		for _, r := range rs[:n] {
			if i := k.RegIndex(r); !seen[i] {
				seen[i] = true
				fn(pc, r)
			}
		}
		if w, ok := in.Write(); ok {
			seen[k.RegIndex(w)] = true
		}
	}
}

// Walk visits every non-control instruction once in body order, passing
// the product of the enclosing Repeat trip counts — the per-work-item
// execution count of that instruction, which is what makes static
// feature extraction exact for this IR.
func (t *LoopTree) Walk(fn func(pc int, in Instr, mult float64)) {
	mult := 1.0
	var stack []float64
	for pc, in := range t.body {
		switch in.Op {
		case OpRepeatBegin:
			stack = append(stack, mult)
			mult *= in.Imm
		case OpRepeatEnd:
			mult = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		default:
			fn(pc, in, mult)
		}
	}
}
