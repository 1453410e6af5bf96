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
//   - use-before-def is decided statically. Because the IR is straight
//     line with statically-bounded loops, the first iteration of every
//     Repeat body executes in program order, so a linear scan is exact,
//     not an approximation (see DESIGN.md §9).
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
	if err := uninitScan(k); err != nil {
		return err
	}
	hasLocal := false
	for _, in := range k.Body {
		if c := class(in.Op); c.isLocal {
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

// uninitScan flags the first read of a register no prior instruction has
// written. Registers are zero-initialized by the interpreter, so such a
// read is well-defined but almost certainly a kernel bug — the checked
// mode promotes it to an error.
func uninitScan(k *Kernel) *CheckError {
	defI := make([]bool, k.NumIntRegs)
	defF := make([]bool, k.NumFloatRegs)
	defined := func(file ScalarType, r int) bool {
		if file == I32 {
			return defI[r]
		}
		return defF[r]
	}
	for pc, in := range k.Body {
		c := class(in.Op)
		for _, u := range [...]struct {
			has  bool
			file ScalarType
			reg  int
		}{
			{c.hasA, c.aFile, in.A},
			{c.hasB, c.bFile, in.B},
			{c.hasC, c.cFile, in.C},
		} {
			if u.has && !defined(u.file, u.reg) {
				return &CheckError{
					Kernel: k.Name, PC: pc, Item: -1,
					Msg: fmt.Sprintf("read of register %s%d before any write", filePrefix(u.file), u.reg),
				}
			}
		}
		if c.hasDst {
			if c.dstFile == I32 {
				defI[in.Dst] = true
			} else {
				defF[in.Dst] = true
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
		if c := class(in.Op); c.isLocal {
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
