package kernelir

import "fmt"

// LoopNode is one node of a kernel's loop tree: the root spans the whole
// body and every other node is one Repeat block.
type LoopNode struct {
	// Begin and End are the pcs of the OpRepeatBegin / OpRepeatEnd pair
	// (-1 and len(body) for the root). The block's body occupies
	// [Begin+1, End).
	Begin, End int
	// Trip is the static trip count (1 for the root).
	Trip float64
	// Children lists the directly nested Repeat blocks, in body order.
	Children []*LoopNode
}

// LoopTree is the shared structured-control normalization of a kernel
// body. Because the IR's only control flow is statically-bounded Repeat
// nesting, the control-flow graph of any kernel reduces without loss to
// this tree; the interpreter (begin/end matching), the feature
// extraction pass (trip-count multipliers, internal/features) and the
// static analyzer (per-block dataflow spans, internal/kernelir/analysis)
// all walk the same normalization instead of re-deriving it.
type LoopTree struct {
	body  []Instr
	match []int
	Root  *LoopNode
}

// BuildLoopTree normalizes a body's Repeat structure, failing on
// unmatched begin/end pairs.
func BuildLoopTree(body []Instr) (*LoopTree, error) {
	t := &LoopTree{
		body:  body,
		match: make([]int, len(body)),
		Root:  &LoopNode{Begin: -1, End: len(body), Trip: 1},
	}
	stack := []*LoopNode{t.Root}
	for pc, in := range body {
		switch in.Op {
		case OpRepeatBegin:
			n := &LoopNode{Begin: pc, End: -1, Trip: in.Imm}
			top := stack[len(stack)-1]
			top.Children = append(top.Children, n)
			stack = append(stack, n)
		case OpRepeatEnd:
			if len(stack) == 1 {
				return nil, fmt.Errorf("kernelir: unmatched repeat end at %d", pc)
			}
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n.End = pc
			t.match[n.Begin] = pc
			t.match[pc] = n.Begin
		}
	}
	if len(stack) != 1 {
		return nil, fmt.Errorf("kernelir: unclosed repeat block")
	}
	return t, nil
}

// Match returns the pc of the matching OpRepeatEnd for an OpRepeatBegin
// pc and vice versa (undefined for other pcs).
func (t *LoopTree) Match(pc int) int { return t.match[pc] }

// Body returns the instruction stream the tree was built from.
func (t *LoopTree) Body() []Instr { return t.body }

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
