// Package compile lowers validated kernelir kernels into closure-threaded
// executable programs: a one-time compilation that lowers the kernel's
// optimizer normal form (opt.CachedResult — loop-invariant code motion
// included, so the lowering itself moves nothing), reuses BuildLoopTree
// for loop normalization, precomputes trip counts, folds register moves
// into their producers and specializes every instruction into a step
// closure — so the per-item hot loop is a flat walk over indirect calls
// with no opcode dispatch, no trip-count map and no per-iteration
// allocation.
//
// The contract with the interpreter is bit-exactness: for any kernel
// Validate accepts, a compiled Program leaves every buffer in exactly the
// state kernelir.Interpret would produce (given the same worker
// geometry), returns byte-identical errors and preserves ExecuteChecked
// trap ordering. The interpreter remains the differential-testing oracle
// for that contract (TestCompiledMatchesInterpreter, FuzzCompiledVsInterp).
//
// Importing this package (even blankly) installs its default program
// cache as the process-wide kernelir Runner, switching Execute and
// ExecuteGrid to compiled code transparently.
package compile

import (
	"fmt"
	"math"

	"synergy/internal/features"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/opt"
)

// Compile lowers a kernel into executable form. It fails exactly when
// Validate fails (with the same error), so Compile-then-run and
// interpret report identical errors for invalid kernels.
//
// The kernel is first brought into optimizer normal form (opt.Cached:
// constant folding, CSE, copy propagation, IR-level LICM, dead-code
// elimination — each application translation-validated), then lowered.
// Stats.Hoisted counts the optimizer's LICM moves; Stats.Instrs reports
// the optimized body size.
func Compile(k *kernelir.Kernel) (*Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	ko, res := opt.CachedResult(k)
	vec, err := features.Extract(k)
	if err != nil {
		return nil, err
	}
	tree, err := kernelir.BuildLoopTree(ko.Body)
	if err != nil {
		return nil, err
	}
	lw := &lowering{tree: tree, body: ko.Body}
	steps := lw.seq(0, len(ko.Body))
	return &Program{
		k:      k,
		steps:  steps,
		numI:   k.NumIntRegs,
		numF:   k.NumFloatRegs,
		localN: k.LocalF32,
		vec:    vec,
		stats:  Stats{Instrs: len(ko.Body), Steps: lw.steps, Hoisted: res.Hoisted, Fused: lw.fused},
	}, nil
}

// lowering carries per-compilation state through the recursive descent.
type lowering struct {
	tree  *kernelir.LoopTree
	body  []kernelir.Instr
	steps int
	fused int
}

// seq lowers body[lo:hi) (one nesting level) into a step sequence.
// Repeat blocks become a single loop step over their lowered body with
// the trip count precomputed as an int64; adjacent producer+move pairs
// fuse into one step that writes both destinations.
func (lw *lowering) seq(lo, hi int) []step {
	var out []step
	for pc := lo; pc < hi; pc++ {
		in := lw.body[pc]
		if in.Op == kernelir.OpRepeatBegin {
			end := lw.tree.Match(pc)
			inner := lw.seq(pc+1, end)
			out = append(out, loopStep(int64(in.Imm), inner))
			lw.steps++
			pc = end
			continue
		}
		d2 := -1
		if pc+1 < hi {
			nxt := lw.body[pc+1]
			if nxt.Op == kernelir.OpMoveI || nxt.Op == kernelir.OpMoveF {
				info := kernelir.InfoOf(in.Op)
				if info.HasDst && nxt.A == in.Dst &&
					((nxt.Op == kernelir.OpMoveI && info.DstFile == kernelir.I32) ||
						(nxt.Op == kernelir.OpMoveF && info.DstFile == kernelir.F32)) {
					d2 = nxt.Dst
				}
			}
		}
		out = append(out, lw.lower(in, d2))
		lw.steps++
		if d2 >= 0 {
			lw.fused++
			pc++ // the move is folded into the step just emitted
		}
	}
	return out
}

// loopStep wraps a lowered loop body with its precomputed trip count.
// Small bodies are specialized so tight loops pay no slice-range
// overhead.
func loopStep(trip int64, body []step) step {
	switch len(body) {
	case 0:
		return func(m *machine) {}
	case 1:
		s0 := body[0]
		return func(m *machine) {
			for t := trip; t > 0; t-- {
				s0(m)
			}
		}
	case 2:
		s0, s1 := body[0], body[1]
		return func(m *machine) {
			for t := trip; t > 0; t-- {
				s0(m)
				s1(m)
			}
		}
	case 3:
		s0, s1, s2 := body[0], body[1], body[2]
		return func(m *machine) {
			for t := trip; t > 0; t-- {
				s0(m)
				s1(m)
				s2(m)
			}
		}
	case 4:
		s0, s1, s2, s3 := body[0], body[1], body[2], body[3]
		return func(m *machine) {
			for t := trip; t > 0; t-- {
				s0(m)
				s1(m)
				s2(m)
				s3(m)
			}
		}
	default:
		return func(m *machine) {
			for t := trip; t > 0; t-- {
				for _, s := range body {
					s(m)
				}
			}
		}
	}
}

func clampIdx(i int64, n int) int {
	if i < 0 {
		return 0
	}
	if i >= int64(n) {
		return n - 1
	}
	return int(i)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// lower specializes one instruction into a step closure. d2 >= 0 selects
// the fused variant: the step also writes the folded move's destination
// (in the same register file), preserving the unfused two-instruction
// semantics exactly — both registers end up written, in order.
func (lw *lowering) lower(in kernelir.Instr, d2 int) step {
	dst, a, b, c, buf := in.Dst, in.A, in.B, in.C, in.Buf
	switch in.Op {
	case kernelir.OpConstI:
		imm := int64(in.Imm)
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = imm }
		}
		return func(m *machine) { m.ints[dst] = imm; m.ints[d2] = imm }
	case kernelir.OpConstF:
		imm := in.Imm
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = imm }
		}
		return func(m *machine) { m.floats[dst] = imm; m.floats[d2] = imm }
	case kernelir.OpMoveI:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = m.ints[a] }
		}
		return func(m *machine) { v := m.ints[a]; m.ints[dst] = v; m.ints[d2] = v }
	case kernelir.OpMoveF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = m.floats[a] }
		}
		return func(m *machine) { v := m.floats[a]; m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpGlobalID:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = m.gid }
		}
		return func(m *machine) { m.ints[dst] = m.gid; m.ints[d2] = m.gid }
	case kernelir.OpGlobalIDX:
		if d2 < 0 {
			return func(m *machine) {
				if m.nx > 0 {
					m.ints[dst] = m.gid % m.nx
				} else {
					m.ints[dst] = m.gid
				}
			}
		}
		return func(m *machine) {
			v := m.gid
			if m.nx > 0 {
				v = m.gid % m.nx
			}
			m.ints[dst] = v
			m.ints[d2] = v
		}
	case kernelir.OpGlobalIDY:
		if d2 < 0 {
			return func(m *machine) {
				if m.nx > 0 {
					m.ints[dst] = m.gid / m.nx
				} else {
					m.ints[dst] = 0
				}
			}
		}
		return func(m *machine) {
			v := int64(0)
			if m.nx > 0 {
				v = m.gid / m.nx
			}
			m.ints[dst] = v
			m.ints[d2] = v
		}
	case kernelir.OpParamI:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = m.scaI[buf] }
		}
		return func(m *machine) { v := m.scaI[buf]; m.ints[dst] = v; m.ints[d2] = v }
	case kernelir.OpParamF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = m.scaF[buf] }
		}
		return func(m *machine) { v := m.scaF[buf]; m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpCvtIF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = float64(m.ints[a]) }
		}
		return func(m *machine) { v := float64(m.ints[a]); m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpCvtFI:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = int64(m.floats[a]) }
		}
		return func(m *machine) { v := int64(m.floats[a]); m.ints[dst] = v; m.ints[d2] = v }
	case kernelir.OpAddI:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = m.ints[a] + m.ints[b] }
		}
		return func(m *machine) { v := m.ints[a] + m.ints[b]; m.ints[dst] = v; m.ints[d2] = v }
	case kernelir.OpSubI:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = m.ints[a] - m.ints[b] }
		}
		return func(m *machine) { v := m.ints[a] - m.ints[b]; m.ints[dst] = v; m.ints[d2] = v }
	case kernelir.OpMulI:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = m.ints[a] * m.ints[b] }
		}
		return func(m *machine) { v := m.ints[a] * m.ints[b]; m.ints[dst] = v; m.ints[d2] = v }
	case kernelir.OpDivI:
		if d2 < 0 {
			return func(m *machine) {
				if m.ints[b] == 0 {
					m.ints[dst] = 0
				} else {
					m.ints[dst] = m.ints[a] / m.ints[b]
				}
			}
		}
		return func(m *machine) {
			v := int64(0)
			if m.ints[b] != 0 {
				v = m.ints[a] / m.ints[b]
			}
			m.ints[dst] = v
			m.ints[d2] = v
		}
	case kernelir.OpRemI:
		if d2 < 0 {
			return func(m *machine) {
				if m.ints[b] == 0 {
					m.ints[dst] = 0
				} else {
					m.ints[dst] = m.ints[a] % m.ints[b]
				}
			}
		}
		return func(m *machine) {
			v := int64(0)
			if m.ints[b] != 0 {
				v = m.ints[a] % m.ints[b]
			}
			m.ints[dst] = v
			m.ints[d2] = v
		}
	case kernelir.OpMinI:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = min64(m.ints[a], m.ints[b]) }
		}
		return func(m *machine) { v := min64(m.ints[a], m.ints[b]); m.ints[dst] = v; m.ints[d2] = v }
	case kernelir.OpMaxI:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = max64(m.ints[a], m.ints[b]) }
		}
		return func(m *machine) { v := max64(m.ints[a], m.ints[b]); m.ints[dst] = v; m.ints[d2] = v }
	case kernelir.OpCmpLTI:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = b2i(m.ints[a] < m.ints[b]) }
		}
		return func(m *machine) { v := b2i(m.ints[a] < m.ints[b]); m.ints[dst] = v; m.ints[d2] = v }
	case kernelir.OpCmpEQI:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = b2i(m.ints[a] == m.ints[b]) }
		}
		return func(m *machine) { v := b2i(m.ints[a] == m.ints[b]); m.ints[dst] = v; m.ints[d2] = v }
	case kernelir.OpSelI:
		if d2 < 0 {
			return func(m *machine) {
				if m.ints[c] != 0 {
					m.ints[dst] = m.ints[a]
				} else {
					m.ints[dst] = m.ints[b]
				}
			}
		}
		return func(m *machine) {
			v := m.ints[b]
			if m.ints[c] != 0 {
				v = m.ints[a]
			}
			m.ints[dst] = v
			m.ints[d2] = v
		}
	case kernelir.OpAndI:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = m.ints[a] & m.ints[b] }
		}
		return func(m *machine) { v := m.ints[a] & m.ints[b]; m.ints[dst] = v; m.ints[d2] = v }
	case kernelir.OpOrI:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = m.ints[a] | m.ints[b] }
		}
		return func(m *machine) { v := m.ints[a] | m.ints[b]; m.ints[dst] = v; m.ints[d2] = v }
	case kernelir.OpXorI:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = m.ints[a] ^ m.ints[b] }
		}
		return func(m *machine) { v := m.ints[a] ^ m.ints[b]; m.ints[dst] = v; m.ints[d2] = v }
	case kernelir.OpShlI:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = m.ints[a] << (uint64(m.ints[b]) & 63) }
		}
		return func(m *machine) {
			v := m.ints[a] << (uint64(m.ints[b]) & 63)
			m.ints[dst] = v
			m.ints[d2] = v
		}
	case kernelir.OpShrI:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = m.ints[a] >> (uint64(m.ints[b]) & 63) }
		}
		return func(m *machine) {
			v := m.ints[a] >> (uint64(m.ints[b]) & 63)
			m.ints[dst] = v
			m.ints[d2] = v
		}
	case kernelir.OpAddF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = m.floats[a] + m.floats[b] }
		}
		return func(m *machine) { v := m.floats[a] + m.floats[b]; m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpSubF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = m.floats[a] - m.floats[b] }
		}
		return func(m *machine) { v := m.floats[a] - m.floats[b]; m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpMulF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = m.floats[a] * m.floats[b] }
		}
		return func(m *machine) { v := m.floats[a] * m.floats[b]; m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpDivF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = m.floats[a] / m.floats[b] }
		}
		return func(m *machine) { v := m.floats[a] / m.floats[b]; m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpMinF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = math.Min(m.floats[a], m.floats[b]) }
		}
		return func(m *machine) { v := math.Min(m.floats[a], m.floats[b]); m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpMaxF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = math.Max(m.floats[a], m.floats[b]) }
		}
		return func(m *machine) { v := math.Max(m.floats[a], m.floats[b]); m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpAbsF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = math.Abs(m.floats[a]) }
		}
		return func(m *machine) { v := math.Abs(m.floats[a]); m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpNegF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = -m.floats[a] }
		}
		return func(m *machine) { v := -m.floats[a]; m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpCmpLTF:
		if d2 < 0 {
			return func(m *machine) { m.ints[dst] = b2i(m.floats[a] < m.floats[b]) }
		}
		return func(m *machine) { v := b2i(m.floats[a] < m.floats[b]); m.ints[dst] = v; m.ints[d2] = v }
	case kernelir.OpSelF:
		if d2 < 0 {
			return func(m *machine) {
				if m.ints[c] != 0 {
					m.floats[dst] = m.floats[a]
				} else {
					m.floats[dst] = m.floats[b]
				}
			}
		}
		return func(m *machine) {
			v := m.floats[b]
			if m.ints[c] != 0 {
				v = m.floats[a]
			}
			m.floats[dst] = v
			m.floats[d2] = v
		}
	case kernelir.OpSqrtF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = math.Sqrt(m.floats[a]) }
		}
		return func(m *machine) { v := math.Sqrt(m.floats[a]); m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpExpF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = math.Exp(m.floats[a]) }
		}
		return func(m *machine) { v := math.Exp(m.floats[a]); m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpLogF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = math.Log(m.floats[a]) }
		}
		return func(m *machine) { v := math.Log(m.floats[a]); m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpSinF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = math.Sin(m.floats[a]) }
		}
		return func(m *machine) { v := math.Sin(m.floats[a]); m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpCosF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = math.Cos(m.floats[a]) }
		}
		return func(m *machine) { v := math.Cos(m.floats[a]); m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpPowF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = math.Pow(m.floats[a], m.floats[b]) }
		}
		return func(m *machine) { v := math.Pow(m.floats[a], m.floats[b]); m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpErfF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = math.Erf(m.floats[a]) }
		}
		return func(m *machine) { v := math.Erf(m.floats[a]); m.floats[dst] = v; m.floats[d2] = v }
	case kernelir.OpLoadGF:
		if d2 < 0 {
			return func(m *machine) {
				bf := m.bufF[buf]
				m.floats[dst] = float64(bf[clampIdx(m.ints[a], len(bf))])
			}
		}
		return func(m *machine) {
			bf := m.bufF[buf]
			v := float64(bf[clampIdx(m.ints[a], len(bf))])
			m.floats[dst] = v
			m.floats[d2] = v
		}
	case kernelir.OpStoreGF:
		return func(m *machine) {
			bf := m.bufF[buf]
			bf[clampIdx(m.ints[a], len(bf))] = float32(m.floats[b])
		}
	case kernelir.OpLoadGI:
		if d2 < 0 {
			return func(m *machine) {
				bi := m.bufI[buf]
				m.ints[dst] = int64(bi[clampIdx(m.ints[a], len(bi))])
			}
		}
		return func(m *machine) {
			bi := m.bufI[buf]
			v := int64(bi[clampIdx(m.ints[a], len(bi))])
			m.ints[dst] = v
			m.ints[d2] = v
		}
	case kernelir.OpStoreGI:
		return func(m *machine) {
			bi := m.bufI[buf]
			bi[clampIdx(m.ints[a], len(bi))] = int32(m.ints[b])
		}
	case kernelir.OpLoadLF:
		if d2 < 0 {
			return func(m *machine) { m.floats[dst] = m.local[clampIdx(m.ints[a], len(m.local))] }
		}
		return func(m *machine) {
			v := m.local[clampIdx(m.ints[a], len(m.local))]
			m.floats[dst] = v
			m.floats[d2] = v
		}
	case kernelir.OpStoreLF:
		return func(m *machine) { m.local[clampIdx(m.ints[a], len(m.local))] = m.floats[b] }
	default:
		panic(fmt.Sprintf("compile: unhandled opcode %v", in.Op))
	}
}
