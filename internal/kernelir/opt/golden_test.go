package opt_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/opt"
	"synergy/internal/microbench"
)

var update = flag.Bool("update", false, "rewrite testdata/optimize.golden")

// goldenKernels returns every suite kernel and every kernel of the
// default micro-benchmark training set, tagged with where it came from.
func goldenKernels(t *testing.T) (tags []string, ks []*kernelir.Kernel) {
	t.Helper()
	for _, b := range benchsuite.All() {
		tags, ks = append(tags, "suite"), append(ks, b.Kernel)
	}
	micro, err := microbench.Kernels(microbench.DefaultSet())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range micro {
		tags, ks = append(tags, "micro"), append(ks, k)
	}
	return tags, ks
}

// TestOptimizeGolden pins what Optimize does to every suite kernel,
// every default micro-benchmark and the hostile families at small
// sizes, against testdata/optimize.golden: the body sizes, rounds and
// hoists of the Result, the optimized kernel's fingerprint, and the
// SHA-256 of the rewrite log rendered one "pass<TAB>pc<TAB>note" line
// per rewrite. Its last row hashes the same over a corpus of generated
// kernels (corpusRow). A change to any pass that moves one instruction
// or one word of a note moves a row here.
func TestOptimizeGolden(t *testing.T) {
	t.Parallel()
	tags, ks := goldenKernels(t)
	for _, k := range []*kernelir.Kernel{
		hostileWide(40), hostileNest(60), hostileChain(12), hostileMul(24),
		hostileEmpty(16), hostileEmptyNest(3),
	} {
		tags, ks = append(tags, "hostile"), append(ks, k)
	}
	var rows []string
	for i, k := range ks {
		ko, res := opt.Optimize(k)
		if res.Err != nil {
			t.Fatalf("%s: %v", k.Name, res.Err)
		}
		sum := sha256.Sum256([]byte(renderLog(res)))
		rows = append(rows, fmt.Sprintf("%s\t%s\tbefore=%d\tafter=%d\trounds=%d\thoisted=%d\tfp=%s\tlog=%s",
			tags[i], k.Name, res.Before, res.After, res.Rounds, res.Hoisted,
			kernelir.Fingerprint(ko), hex.EncodeToString(sum[:])))
	}
	rows = append(rows, corpusRow(t, 5000))
	checkGolden(t, filepath.Join("testdata", "optimize.golden"), strings.Join(rows, "\n")+"\n")
}

// renderLog renders a rewrite log one "pass<TAB>pc<TAB>note" line per
// rewrite.
func renderLog(res opt.Result) string {
	var log strings.Builder
	for _, rw := range res.Rewrites {
		log.WriteString(rw.Pass + "\t" + strconv.Itoa(rw.PC) + "\t" + rw.Note + "\n")
	}
	return log.String()
}

// corpusRow optimizes n generated kernels (genKernel, seeds 0 to n-1)
// and hashes each Result, its rewrite log and the optimized kernel's
// text into one SHA-256. The row also counts each pass's rewrites, the
// strength reductions and the empty repeats removed, to show that every
// pass fired on the corpus.
func corpusRow(t *testing.T, n int) string {
	h := sha256.New()
	counts := make(map[string]int)
	for seed := range n {
		k := genKernel(rand.New(rand.NewPCG(uint64(seed), 0)))
		if err := k.Validate(); err != nil {
			t.Fatalf("seed %d: generated an invalid kernel: %v", seed, err)
		}
		ko, res := opt.Optimize(k)
		if res.Err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, res.Err, k.Disassemble())
		}
		fmt.Fprintf(h, "before=%d after=%d rounds=%d hoisted=%d\n%s%s",
			res.Before, res.After, res.Rounds, res.Hoisted, renderLog(res), ko.Disassemble())
		for _, rw := range res.Rewrites {
			counts[rw.Pass]++
			switch {
			case strings.HasPrefix(rw.Note, "strength reduction"):
				counts["strength"]++
			case rw.Note == "empty repeat block (begin)":
				counts["empty"]++
			}
		}
	}
	return fmt.Sprintf("corpus\tkernels=%d\tconstfold=%d\talgebra=%d\tstrength=%d\tcse=%d\tcopyprop=%d\tlicm=%d\tdce=%d\tempty=%d\tsha=%x",
		n, counts["constfold"], counts["algebra"], counts["strength"], counts["cse"], counts["copyprop"],
		counts["licm"], counts["dce"], counts["empty"], h.Sum(nil))
}

// genKernel draws a valid kernel from r: 8 to 40 instructions over six
// registers per file, in balanced repeat nests up to 4 deep, with
// constants from a set that holds the identities algebra looks for and
// powers of two, loads, stores, duplicated expressions for cse and
// moves for copyprop. Results nothing reads are the dead code.
func genKernel(r *rand.Rand) *kernelir.Kernel {
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

// checkGolden compares got with the golden file, rewriting it first
// under -update.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	want := strings.Split(string(raw), "\n")
	have := strings.Split(got, "\n")
	if len(have) != len(want) {
		t.Fatalf("%d rows, golden %s has %d", len(have), golden, len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i, have[i], want[i])
		}
	}
}
