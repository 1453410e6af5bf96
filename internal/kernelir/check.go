package kernelir

import "fmt"

// CheckError reports a strict-semantics violation found by
// ExecuteChecked.
type CheckError struct {
	Kernel string
	PC     int   // offending body instruction
	Item   int64 // work-item id (-1 for static, pre-execution findings)
	Msg    string
}

func (e *CheckError) Error() string {
	if e.Item < 0 {
		return fmt.Sprintf("kernelir: %s: checked: instr %d: %s", e.Kernel, e.PC, e.Msg)
	}
	return fmt.Sprintf("kernelir: %s: checked: instr %d (item %d): %s", e.Kernel, e.PC, e.Item, e.Msg)
}

// ExecuteChecked runs the kernel like Execute but enforces the strict
// semantics the static analyzer (internal/kernelir/analysis) reasons
// about: a read of a register no instruction has yet written, or a local
// access whose index falls outside [0, LocalF32), is reported as an
// error instead of a silently-zero read or a clamped access. Global
// accesses keep their documented clamping semantics — boundary-clamped
// stencils depend on them, so they are a feature, not a bug. Buffer
// contents produced by a passing run are bit-identical to Execute's.
//
// The two checks cost nothing at runtime where possible:
//
//   - use-before-def is decided statically by LoopTree.ReadsBeforeWrites,
//     the scan the optimizer's liveness and the analyzer's uninit pass
//     share (see DESIGN.md §9).
//   - local bounds are checked by running a self-instrumented variant of
//     the kernel — each local access is preceded by a bounds probe that
//     records the first offending pc in an appended flag buffer — through
//     the ordinary interpreter. Reusing the interpreter instead of
//     duplicating it means the check can never drift from the real
//     execution semantics.
func ExecuteChecked(k *Kernel, a Args, items int) error {
	return ExecuteCheckedGrid(k, a, items, 0)
}

// ExecuteCheckedGrid is ExecuteChecked over a 2-D range (see
// ExecuteGrid).
func ExecuteCheckedGrid(k *Kernel, a Args, items, nx int) error {
	if err := k.Validate(); err != nil {
		return err
	}
	tree, err := BuildLoopTree(k.Body)
	if err != nil {
		return err
	}
	var uninit *CheckError
	tree.ReadsBeforeWrites(k, func(pc int, r Reg) {
		if uninit == nil {
			uninit = &CheckError{
				Kernel: k.Name, PC: pc, Item: -1,
				Msg: "read of register " + r.String() + " before any write",
			}
		}
	})
	if uninit != nil {
		return uninit
	}
	hasLocal := false
	for _, in := range k.Body {
		if in.Op.Info().IsLocal {
			hasLocal = true
			break
		}
	}
	if !hasLocal {
		return ExecuteGrid(k, a, items, nx)
	}
	if items <= 0 {
		return fmt.Errorf("kernelir: %s: non-positive item count %d", k.Name, items)
	}
	ik, flagName := instrumentLocalBounds(k)
	flags := make([]int32, items)
	ia := a
	ia.I32 = make(map[string][]int32, len(a.I32)+1)
	for name, buf := range a.I32 {
		ia.I32[name] = buf
	}
	ia.I32[flagName] = flags
	if err := ExecuteGrid(ik, ia, items, nx); err != nil {
		return err
	}
	for item, f := range flags {
		if f != 0 {
			return &CheckError{
				Kernel: k.Name, PC: int(f) - 1, Item: int64(item),
				Msg: fmt.Sprintf("local access index outside [0, %d)", k.LocalF32),
			}
		}
	}
	return nil
}

// instrumentLocalBounds builds a self-checking variant of k: an appended
// read-write i32 flag buffer (indexed by linear work-item id) records
// pc+1 of the first local access whose index register lies outside
// [0, LocalF32). Fresh probe registers are appended to the int file so
// the original program is undisturbed.
func instrumentLocalBounds(k *Kernel) (*Kernel, string) {
	flagName := "__lint_oob"
	for {
		if _, taken := k.ParamIndex(flagName); !taken {
			break
		}
		flagName += "_"
	}
	ik := k.WithBody(nil)
	ik.Params = append(append([]Param{}, k.Params...),
		Param{Name: flagName, IsBuffer: true, Type: I32, Access: ReadWrite})
	flagBuf := len(ik.Params) - 1

	rGid := k.NumIntRegs
	rZero, rOne, rLimit, rBad, rProbe, rCur := rGid+1, rGid+2, rGid+3, rGid+4, rGid+5, rGid+6
	ik.NumIntRegs = k.NumIntRegs + 7

	body := make([]Instr, 0, len(k.Body)+16)
	body = append(body,
		Instr{Op: OpGlobalID, Dst: rGid},
		Instr{Op: OpConstI, Dst: rZero, Imm: 0},
		Instr{Op: OpConstI, Dst: rOne, Imm: 1},
		Instr{Op: OpConstI, Dst: rLimit, Imm: float64(k.LocalF32)},
	)
	for pc, in := range k.Body {
		if in.Op.Info().IsLocal {
			idx := in.A
			body = append(body,
				Instr{Op: OpCmpLTI, Dst: rBad, A: idx, B: rLimit},  // idx < limit
				Instr{Op: OpXorI, Dst: rBad, A: rBad, B: rOne},     // !(idx < limit)
				Instr{Op: OpCmpLTI, Dst: rProbe, A: idx, B: rZero}, // idx < 0
				Instr{Op: OpOrI, Dst: rBad, A: rBad, B: rProbe},    // out of bounds?
				Instr{Op: OpConstI, Dst: rProbe, Imm: float64(pc + 1)},
				Instr{Op: OpSelI, Dst: rProbe, A: rProbe, B: rZero, C: rBad}, // bad ? pc+1 : 0
				Instr{Op: OpLoadGI, Dst: rCur, A: rGid, Buf: flagBuf},
				Instr{Op: OpSelI, Dst: rCur, A: rCur, B: rProbe, C: rCur}, // keep first hit
				Instr{Op: OpStoreGI, A: rGid, B: rCur, Buf: flagBuf},
			)
		}
		body = append(body, in)
	}
	ik.Body = body
	return ik, flagName
}
