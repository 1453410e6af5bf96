package opt

import (
	"math/rand/v2"
	"slices"
	"testing"

	"synergy/internal/kernelir"
)

// GenKernel draws a valid kernel from r: 8 to 40 instructions over six
// registers per file, in balanced repeat nests up to 4 deep, with
// constants from a set that holds the identities algebra looks for and
// powers of two, loads, stores, duplicated expressions for cse and
// moves for copyprop. Results nothing reads are the dead code. It is
// exported to the external tests, whose golden corpus it draws.
func GenKernel(r *rand.Rand) *kernelir.Kernel {
	const regs = 6
	k := &kernelir.Kernel{
		Name: "gen",
		Params: []kernelir.Param{
			{Name: "fin", IsBuffer: true, Type: kernelir.F32, Access: kernelir.Read},
			{Name: "fout", IsBuffer: true, Type: kernelir.F32, Access: kernelir.Write},
			{Name: "iin", IsBuffer: true, Type: kernelir.I32, Access: kernelir.Read},
			{Name: "iout", IsBuffer: true, Type: kernelir.I32, Access: kernelir.Write},
			{Name: "s", Type: kernelir.F32},
			{Name: "n", Type: kernelir.I32},
		},
		NumIntRegs:   regs,
		NumFloatRegs: regs,
	}
	consts := []float64{0, 1, 2, 3, 4, 8, 16, 64, -1}
	ops := []kernelir.Op{
		kernelir.OpConstI, kernelir.OpConstI, kernelir.OpConstI, kernelir.OpConstF, kernelir.OpConstF,
		kernelir.OpMoveI, kernelir.OpMoveF, kernelir.OpGlobalID, kernelir.OpParamI, kernelir.OpParamF,
		kernelir.OpCvtIF, kernelir.OpAddI, kernelir.OpSubI, kernelir.OpMulI, kernelir.OpMulI,
		kernelir.OpDivI, kernelir.OpRemI, kernelir.OpAndI, kernelir.OpOrI, kernelir.OpXorI,
		kernelir.OpShlI, kernelir.OpMinI, kernelir.OpCmpLTI, kernelir.OpSelI, kernelir.OpAddF,
		kernelir.OpMulF, kernelir.OpDivF, kernelir.OpMaxF, kernelir.OpSqrtF, kernelir.OpSelF,
		kernelir.OpLoadGF, kernelir.OpLoadGI, kernelir.OpStoreGF, kernelir.OpStoreGI,
	}
	bufOf := map[kernelir.Op]int{
		kernelir.OpLoadGF: 0, kernelir.OpStoreGF: 1, kernelir.OpLoadGI: 2, kernelir.OpStoreGI: 3,
		kernelir.OpParamF: 4, kernelir.OpParamI: 5,
	}
	instr := func() kernelir.Instr {
		op := ops[r.IntN(len(ops))]
		in := kernelir.Instr{Op: op, Dst: r.IntN(regs), A: r.IntN(regs), B: r.IntN(regs), C: r.IntN(regs), Buf: bufOf[op]}
		if op == kernelir.OpConstI || op == kernelir.OpConstF {
			in.Imm = consts[r.IntN(len(consts))]
		}
		return in
	}
	size := 8 + r.IntN(33)
	var block func(depth int)
	block = func(depth int) {
		for len(k.Body) < size && r.IntN(6) != 0 {
			switch n := r.IntN(10); {
			case n == 0 && depth < 4:
				k.Body = append(k.Body, kernelir.Instr{Op: kernelir.OpRepeatBegin, Imm: float64(1 + r.IntN(3))})
				block(depth + 1)
				k.Body = append(k.Body, kernelir.Instr{Op: kernelir.OpRepeatEnd})
			case n == 1 && len(k.Body) > 0 && k.Body[len(k.Body)-1].Op.Info().Writes:
				// The same expression again, into another register.
				in := k.Body[len(k.Body)-1]
				in.Dst = r.IntN(regs)
				k.Body = append(k.Body, in)
			default:
				k.Body = append(k.Body, instr())
			}
		}
	}
	for len(k.Body) < size {
		block(0)
	}
	return k
}

// TestPassesIgnoreUsedScratch runs the pipeline over the golden
// corpus as Optimize does, on one scratch per kernel. Before each pass
// it runs all six passes on the input body and then the other five on
// the current one, so the scratch holds what each pass leaves on
// another body and what the others leave on this one, and then
// requires the pass to return the body and rewrite log it returns on a
// fresh scratch. A pass that does not clear its state fails here by
// kernel and pass, where the golden hash would say only that some
// kernel differs.
func TestPassesIgnoreUsedScratch(t *testing.T) {
	t.Parallel()
	for seed := range 5000 {
		k := GenKernel(rand.New(rand.NewPCG(uint64(seed), 0)))
		input, err := kernelir.BuildLoopTree(k.Body)
		if err != nil {
			t.Fatal(err)
		}
		// A tree reads the body it was built from, and the first body's
		// buffer is reused once a pass replaces it.
		s, body := newScratch(k), append([]kernelir.Instr(nil), k.Body...)
		tree, _ := kernelir.BuildLoopTree(body)
		for round, changed := 0, true; changed; round++ {
			if round == maxRounds {
				t.Fatalf("seed %d: no fixpoint after %d rounds", seed, maxRounds)
			}
			changed = false
			for _, p := range passes {
				for _, q := range passes {
					q.fn(s, k.Body, input, nil)
				}
				for _, q := range passes {
					if q.name != p.name {
						q.fn(s, body, tree, nil)
					}
				}
				got, log := p.fn(s, body, tree, nil)
				want, wantLog := p.fn(newScratch(k), body, tree, nil)
				if !slices.EqualFunc(got, want, instrEq) || !slices.Equal(log, wantLog) {
					t.Fatalf("seed %d, round %d: %s on a used scratch gave\n%s%v\non a fresh one\n%s%v", seed, round, p.name,
						k.WithBody(got).Disassemble(), log, k.WithBody(want).Disassemble(), wantLog)
				}
				if len(log) == 0 {
					continue
				}
				nt, err := checkPass(s, body, got, p.name, log)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				s.spare, body, tree = body, got, nt
				changed = true
			}
		}
	}
}
